#include "common/stats.hh"

#include <cstdio>
#include <deque>
#include <shared_mutex>
#include <unordered_map>

#include "common/log.hh"

namespace mtrap
{

// --------------------------------------------------------------------------
// StatNames
// --------------------------------------------------------------------------

namespace
{

/** Interner state; intentionally leaked (late-destroyed Systems may
 *  still format names during teardown). */
struct NameTable
{
    std::shared_mutex mu;
    /** Deque: stable addresses, so ids can hand out string refs. */
    std::deque<std::string> strings;
    /** Views point into `strings` entries (stable). */
    std::unordered_map<std::string_view, NameId> ids;
    std::atomic<std::uint64_t> constructions{0};

    NameTable()
    {
        strings.emplace_back(); // id 0 == ""
        ids.emplace(std::string_view(strings.back()), 0);
    }
};

NameTable &
nameTable()
{
    static NameTable *t = new NameTable();
    return *t;
}

} // namespace

NameId
StatNames::intern(std::string_view s)
{
    NameTable &t = nameTable();
    {
        std::shared_lock lk(t.mu);
        auto it = t.ids.find(s);
        if (it != t.ids.end())
            return it->second;
    }
    std::unique_lock lk(t.mu);
    auto it = t.ids.find(s);
    if (it != t.ids.end())
        return it->second;
    const NameId id = static_cast<NameId>(t.strings.size());
    t.strings.emplace_back(s);
    t.ids.emplace(std::string_view(t.strings.back()), id);
    t.constructions.fetch_add(1, std::memory_order_relaxed);
    return id;
}

const std::string &
StatNames::str(NameId id)
{
    NameTable &t = nameTable();
    std::shared_lock lk(t.mu);
    return t.strings.at(id);
}

std::uint64_t
StatNames::constructions()
{
    return nameTable().constructions.load(std::memory_order_relaxed);
}

StatName
StatName::indexed(const char *prefix, unsigned n)
{
    char buf[64];
    const int len = std::snprintf(buf, sizeof(buf), "%s%u", prefix, n);
    if (len < 0 || len >= static_cast<int>(sizeof(buf)))
        fatal("stat name '%s%u' too long", prefix, n);
    StatName out;
    out.id_ = StatNames::intern(std::string_view(buf,
                                                 static_cast<size_t>(len)));
    return out;
}

StatName
StatName::withSuffix(const char *suffix) const
{
    const std::string &base = str();
    char buf[96];
    const int len = std::snprintf(buf, sizeof(buf), "%s%s", base.c_str(),
                                  suffix);
    if (len < 0 || len >= static_cast<int>(sizeof(buf)))
        fatal("stat name '%s%s' too long", base.c_str(), suffix);
    StatName out;
    out.id_ = StatNames::intern(std::string_view(buf,
                                                 static_cast<size_t>(len)));
    return out;
}

// --------------------------------------------------------------------------
// StatSchema
// --------------------------------------------------------------------------

const StatDef &
StatSchema::bind(unsigned pos, const char *name, const char *desc,
                 StatKind kind, std::uint32_t words, FormulaFn fn)
{
    auto verify = [&](const StatDef &d) -> const StatDef & {
        if (d.kind != kind || std::strcmp(d.name, name) != 0 ||
            d.words != words || d.formula != fn)
            fatal("stat schema %s: slot %u bound as '%s' but registered "
                  "as '%s' — every instance of a component type must "
                  "register the same stats in the same order",
                  component_, pos, name, d.name);
        return d;
    };

    if (pos < count_.load(std::memory_order_acquire))
        return verify(defs_[pos]);

    std::lock_guard<std::mutex> lk(mu_);
    if (pos < count_.load(std::memory_order_relaxed))
        return verify(defs_[pos]);
    if (pos != count_.load(std::memory_order_relaxed))
        panic("stat schema %s: non-sequential bind of slot %u",
              component_, pos);
    if (pos >= kMaxDefs)
        fatal("stat schema %s: more than %u stats; raise "
              "StatSchema::kMaxDefs", component_, kMaxDefs);

    StatDef &d = defs_[pos];
    d.name = name;
    d.desc = desc;
    d.kind = kind;
    d.words = words;
    d.offset = dataWords_.load(std::memory_order_relaxed);
    d.formula = fn;
    d.ctxIndex = (kind == StatKind::Formula) ? ctxCount_++ : 0;
    dataWords_.store(d.offset + words, std::memory_order_release);
    count_.store(pos + 1, std::memory_order_release);
    return d;
}

// --------------------------------------------------------------------------
// StatView
// --------------------------------------------------------------------------

double
StatView::number() const
{
    const std::uint64_t *w = &group_->words_[def_->offset];
    switch (def_->kind) {
      case StatKind::Counter:
        return static_cast<double>(w[0]);
      case StatKind::Average:
        return w[1] ? statWordAsDouble(w) / static_cast<double>(w[1])
                    : 0.0;
      case StatKind::Formula:
        return def_->formula
                   ? def_->formula(group_->ctx_[def_->ctxIndex])
                   : 0.0;
    }
    return 0.0;
}

const std::uint64_t *
StatView::words() const
{
    if (def_->kind == StatKind::Formula)
        return nullptr;
    return &group_->words_[def_->offset];
}

std::string
StatView::format() const
{
    const std::uint64_t *w = &group_->words_[def_->offset];
    switch (def_->kind) {
      case StatKind::Counter:
        return strfmt("%llu", static_cast<unsigned long long>(w[0]));
      case StatKind::Average:
        return strfmt("%.4f (n=%llu)",
                      w[1] ? statWordAsDouble(w)
                                 / static_cast<double>(w[1])
                           : 0.0,
                      static_cast<unsigned long long>(w[1]));
      case StatKind::Formula:
        return strfmt("%.6f", number());
    }
    return "?";
}

// --------------------------------------------------------------------------
// StatGroup
// --------------------------------------------------------------------------

StatGroup::StatGroup(StatSchema &schema, StatName name, StatGroup *parent)
    : StatGroup(name, parent)
{
    schema_ = &schema;
}

StatGroup::StatGroup(StatName name, StatGroup *parent)
    : name_(name), parent_(parent)
{
    if (parent_) {
        if (parent_->lastChild_)
            parent_->lastChild_->nextSibling_ = this;
        else
            parent_->firstChild_ = this;
        parent_->lastChild_ = this;
    }
}

StatSchema &
StatGroup::ensureSchema()
{
    if (!schema_) {
        ownedSchema_ = std::make_unique<StatSchema>("ad-hoc");
        schema_ = ownedSchema_.get();
    }
    return *schema_;
}

std::uint64_t *
StatGroup::bindWords(const char *name, const char *desc, StatKind kind,
                     std::uint32_t words)
{
    const StatDef &d = ensureSchema().bind(cursor_++, name, desc, kind,
                                           words);
    if (d.offset + d.words > kSheetWords)
        fatal("stat group %s: sheet overflow binding '%s' (%u words); "
              "raise StatGroup::kSheetWords",
              name_.c_str(), name, d.offset + d.words);
    return &words_[d.offset];
}

void
StatGroup::bindFormula(const char *name, const char *desc, FormulaFn fn,
                       const void *ctx)
{
    const StatDef &d = ensureSchema().bind(cursor_++, name, desc,
                                           StatKind::Formula, 0, fn);
    if (d.ctxIndex >= kCtxSlots)
        fatal("stat group %s: more than %u formulas; raise "
              "StatGroup::kCtxSlots", name_.c_str(), kCtxSlots);
    ctx_[d.ctxIndex] = ctx;
}

std::string
StatGroup::path() const
{
    if (!parent_)
        return name_.str();
    return parent_->path() + "." + name_.str();
}

void
StatGroup::dump(std::ostream &os) const
{
    std::string prefix = path();
    dumpImpl(os, prefix);
}

void
StatGroup::dumpImpl(std::ostream &os, std::string &prefix) const
{
    for (unsigned i = 0; i < cursor_; ++i) {
        const StatDef &d = schema_->def(i);
        os << prefix << "." << d.name << " = "
           << StatView(&d, this).format() << "   # " << d.desc << "\n";
    }
    for (const StatGroup *c = firstChild_; c; c = c->nextSibling_) {
        const std::size_t len = prefix.size();
        prefix += '.';
        prefix += c->name_.str();
        c->dumpImpl(os, prefix);
        prefix.resize(len);
    }
}

void
StatGroup::resetAll()
{
    std::memset(words_, 0, sizeof(words_));
    for (StatGroup *c = firstChild_; c; c = c->nextSibling_)
        c->resetAll();
}

StatView
StatGroup::find(std::string_view name) const
{
    for (unsigned i = 0; i < cursor_; ++i) {
        const StatDef &d = schema_->def(i);
        if (name == d.name)
            return StatView(&d, this);
    }
    return StatView();
}

void
StatGroup::visit(const std::function<void(const std::string &,
                                          const StatView &)> &fn) const
{
    std::string prefix = path();
    visitImpl(fn, prefix);
}

void
StatGroup::visitImpl(const std::function<void(const std::string &,
                                              const StatView &)> &fn,
                     std::string &prefix) const
{
    for (unsigned i = 0; i < cursor_; ++i) {
        const StatDef &d = schema_->def(i);
        fn(prefix + "." + d.name, StatView(&d, this));
    }
    for (const StatGroup *c = firstChild_; c; c = c->nextSibling_) {
        const std::size_t len = prefix.size();
        prefix += '.';
        prefix += c->name_.str();
        c->visitImpl(fn, prefix);
        prefix.resize(len);
    }
}

} // namespace mtrap
