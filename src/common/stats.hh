/**
 * @file
 * Zero-allocation statistics package: interned per-component-type stat
 * schemas plus dense per-instance telemetry sheets.
 *
 * The original design (a tiny fraction of gem5's stats package) gave
 * every stat its own heap-allocated name/description strings and every
 * group a dotted-path string — which made stat registration the last
 * remaining System-construction wall for the paper's thousands of
 * short-lived sweep systems. This redesign splits the package in two:
 *
 *  - A process-wide StatSchema per component *type* (Cache, Core, ...):
 *    names, descriptions, kinds and sheet offsets are registered once,
 *    at first use, and shared by every instance. Leaf names/descs stay
 *    the caller's string literals; runtime group names ("core0",
 *    "l1d3") are interned once in the process-wide StatNames table.
 *
 *  - A per-instance StatSheet of dense POD slots embedded inline in
 *    each StatGroup: constructing a component's stats is a memset, and
 *    resetAll() is a memset. No heap allocation, no string formatting.
 *
 * Counter/Average/Formula are thin typed handles pointing
 * into the sheet; component code (`++hits`, `latency.sample(x)`) is
 * unchanged. Full dotted names ("system.core0.l1d.hits") are
 * materialized lazily, only at dump/visit time, from the interned
 * prefix chain.
 *
 * StatNames::constructions() counts every stat-name std::string the
 * package ever builds (interner insertions); a warm process constructs
 * zero of them per System, which the stats_schema_test locks down.
 */

#ifndef MTRAP_COMMON_STATS_HH
#define MTRAP_COMMON_STATS_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace mtrap
{

class StatGroup;

/** Interned stat-name id (index into the process-wide StatNames table). */
using NameId = std::uint32_t;

/**
 * Process-wide stat-name interner. Interning an already-known name is a
 * shared-lock hash lookup (no allocation); only the first sighting of a
 * name constructs a string. Id 0 is always the empty string.
 */
class StatNames
{
  public:
    static NameId intern(std::string_view s);
    static const std::string &str(NameId id);

    /**
     * Number of stat-name std::strings constructed so far (one per
     * distinct interned name, process lifetime). Flat across warm
     * System construction — the acceptance counter for the
     * zero-allocation claim.
     */
    static std::uint64_t constructions();
};

/**
 * Value-type interned name. Cheap to copy and compare; converting from
 * a string is a hash lookup (allocation only on first sighting).
 * Component params carry these instead of std::string so configuring a
 * system constructs no name strings after warm-up.
 */
class StatName
{
  public:
    StatName() = default; // id 0 == ""
    StatName(const char *s) : id_(StatNames::intern(s)) {}
    StatName(const std::string &s) : id_(StatNames::intern(s)) {}

    /** "<prefix><n>", e.g. indexed("l1d", 3) == "l1d3"; formatted in a
     *  stack buffer, so warm interning constructs nothing. */
    static StatName indexed(const char *prefix, unsigned n);

    /** "<this><suffix>", e.g. "fcache_d" + "_filter"; stack-buffered. */
    StatName withSuffix(const char *suffix) const;

    NameId id() const { return id_; }
    const std::string &str() const { return StatNames::str(id_); }
    const char *c_str() const { return str().c_str(); }
    bool empty() const { return id_ == 0; }

  private:
    NameId id_ = 0;
};

enum class StatKind : std::uint8_t { Counter, Average, Formula };

/** Derived-stat evaluator: a pure function of its per-instance context
 *  (usually the owning component). Must be a plain function pointer so
 *  the schema can share it across instances. */
using FormulaFn = double (*)(const void *ctx);

/** One stat's interned metadata: shared by every instance of the
 *  component type that registered it. */
struct StatDef
{
    const char *name = nullptr; ///< leaf name (caller's string literal)
    const char *desc = nullptr;
    StatKind kind = StatKind::Counter;
    std::uint32_t offset = 0;   ///< first data word in the sheet
    std::uint32_t words = 0;    ///< data words occupied
    std::uint32_t ctxIndex = 0; ///< formula context slot
    FormulaFn formula = nullptr;
};

/**
 * Interned stat layout of one component type. Define one per type
 * (usually a function-local static in the component's .cc) and pass it
 * to every instance's StatGroup. The first instance registers the defs
 * (taking a mutex); later instances take the lock-free fast path and
 * just verify position/kind. Registration is positional: every
 * instance must bind the same stats in the same order, which member
 * initialization order guarantees.
 */
class StatSchema
{
  public:
    explicit StatSchema(const char *component) : component_(component) {}

    StatSchema(const StatSchema &) = delete;
    StatSchema &operator=(const StatSchema &) = delete;

    /** Defs registered so far (acquire: defs_[0..size) are readable). */
    unsigned size() const
    {
        return count_.load(std::memory_order_acquire);
    }
    const StatDef &def(unsigned i) const { return defs_[i]; }

    /** Total data words a full sheet needs. */
    std::uint32_t dataWords() const
    {
        return dataWords_.load(std::memory_order_acquire);
    }

    /** Register-or-verify the def at position `pos` (see class docs). */
    const StatDef &bind(unsigned pos, const char *name, const char *desc,
                        StatKind kind, std::uint32_t words,
                        FormulaFn fn = nullptr);

    static constexpr unsigned kMaxDefs = 24;

  private:
    const char *component_;
    std::mutex mu_;
    std::atomic<std::uint32_t> count_{0};
    std::atomic<std::uint32_t> dataWords_{0};
    std::uint32_t ctxCount_ = 0; ///< guarded by mu_
    StatDef defs_[kMaxDefs];
};

/**
 * Read-only view of one stat of one group (dump/visit/find). Values
 * are formatted on demand; nothing is owned.
 */
class StatView
{
  public:
    StatView() = default;
    StatView(const StatDef *def, const StatGroup *group)
        : def_(def), group_(group) {}

    explicit operator bool() const { return def_ != nullptr; }

    const char *name() const { return def_->name; }
    const char *desc() const { return def_->desc; }
    StatKind kind() const { return def_->kind; }

    /** Numeric value: count, mean, or formula result. */
    double number() const;

    /** Render the current value(s) exactly as the legacy package did. */
    std::string format() const;

    /**
     * Direct pointer to the stat's data words in the live sheet (stable
     * for the group's lifetime), or nullptr for formulas, which own no
     * words. Interval samplers (trace/stats_series.hh) keep these
     * pointers so each sample is plain loads — no name lookups.
     */
    const std::uint64_t *words() const;

  private:
    const StatDef *def_ = nullptr;
    const StatGroup *group_ = nullptr;
};

/**
 * A named collection of statistics belonging to one component
 * instance: an interned name, a schema pointer, and the instance's
 * telemetry sheet, stored inline (construction and reset are memsets —
 * no heap traffic). Groups nest through an intrusive sibling list, so
 * attaching a child allocates nothing either.
 */
class StatGroup
{
  public:
    /** Component group over a shared per-type schema. */
    StatGroup(StatSchema &schema, StatName name, StatGroup *parent);

    /**
     * Ad-hoc group (tests, one-off rigs): owns a private schema,
     * allocated lazily when the first stat binds. Groups that only act
     * as parents (System's root) never allocate.
     */
    explicit StatGroup(StatName name, StatGroup *parent = nullptr);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_.str(); }

    /** Fully qualified dotted name, e.g. "system.core0.l1d".
     *  Materialized on demand — never during construction. */
    std::string path() const;

    /** Print every stat in this group and its children. */
    void dump(std::ostream &os) const;

    /** Reset every stat in this group and its children (memset). */
    void resetAll();

    /** Find a stat by local name (invalid view if absent); for tests. */
    StatView find(std::string_view name) const;

    /** Visit every stat in this subtree with its fully qualified path
     *  (serialisation, custom reporting). Paths are built lazily here,
     *  at visit time. */
    void visit(const std::function<void(const std::string &path,
                                        const StatView &stat)> &fn) const;

    /**
     * Pre-order walk over this group and every descendant, in
     * registration order — the deterministic traversal the snapshot
     * layer pairs with sheet() to memcpy all telemetry in one pass.
     */
    template <typename Fn>
    void forEachGroup(Fn &&fn)
    {
        fn(*this);
        for (StatGroup *c = firstChild_; c; c = c->nextSibling_)
            c->forEachGroup(fn);
    }

    template <typename Fn>
    void forEachGroup(Fn &&fn) const
    {
        fn(*this);
        for (const StatGroup *c = firstChild_; c; c = c->nextSibling_)
            c->forEachGroup(fn);
    }

    /** The raw telemetry sheet (kSheetWords words): checkpoint access. */
    std::uint64_t *sheet() { return words_; }
    const std::uint64_t *sheet() const { return words_; }

    // --- binding API (used by the typed handles below) -------------------
    std::uint64_t *bindWords(const char *name, const char *desc,
                             StatKind kind, std::uint32_t words);
    void bindFormula(const char *name, const char *desc, FormulaFn fn,
                     const void *ctx);

    /** Inline sheet capacity: data words / formula contexts per group.
     *  Generous for every component schema; binds past it are fatal. */
    static constexpr unsigned kSheetWords = 64;
    static constexpr unsigned kCtxSlots = 6;

  private:
    friend class StatView;

    StatSchema &ensureSchema();
    void dumpImpl(std::ostream &os, std::string &prefix) const;
    void visitImpl(const std::function<void(const std::string &,
                                            const StatView &)> &fn,
                   std::string &prefix) const;

    StatName name_;
    StatGroup *parent_ = nullptr;
    StatSchema *schema_ = nullptr;
    /** Ad-hoc groups only; component groups share a static schema. */
    std::unique_ptr<StatSchema> ownedSchema_;
    /** Intrusive child list (registration order == dump order). */
    StatGroup *firstChild_ = nullptr;
    StatGroup *lastChild_ = nullptr;
    StatGroup *nextSibling_ = nullptr;
    /** Next bind position (instance-local registration cursor). */
    unsigned cursor_ = 0;

    /** The telemetry sheet: dense POD slots, zero-initialised. */
    std::uint64_t words_[kSheetWords] = {};
    /** Per-instance formula contexts (survive resetAll). */
    const void *ctx_[kCtxSlots] = {};
};

/** Load/store a double held in a sheet word (defined-behaviour type
 *  punning; compiles to a plain move). */
inline double
statWordAsDouble(const std::uint64_t *w)
{
    double d;
    std::memcpy(&d, w, sizeof(d));
    return d;
}

inline void
statWordFromDouble(std::uint64_t *w, double d)
{
    std::memcpy(w, &d, sizeof(d));
}

/** Monotonic (well, signed-adjustable) event counter: one sheet word. */
class Counter
{
  public:
    Counter(StatGroup *group, const char *name, const char *desc)
        : v_(group->bindWords(name, desc, StatKind::Counter, 1)) {}

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    Counter &operator++() { ++*v_; return *this; }
    Counter &operator+=(std::uint64_t v) { *v_ += v; return *this; }
    std::uint64_t value() const { return *v_; }
    void reset() { *v_ = 0; }

  private:
    std::uint64_t *v_;
};

/** Running average of samples: two sheet words (sum, count). */
class Average
{
  public:
    Average(StatGroup *group, const char *name, const char *desc)
        : w_(group->bindWords(name, desc, StatKind::Average, 2)) {}

    Average(const Average &) = delete;
    Average &operator=(const Average &) = delete;

    void sample(double v)
    {
        statWordFromDouble(w_, statWordAsDouble(w_) + v);
        ++w_[1];
    }
    double mean() const
    {
        return w_[1] ? statWordAsDouble(w_)
                           / static_cast<double>(w_[1])
                     : 0.0;
    }
    std::uint64_t count() const { return w_[1]; }
    void reset() { w_[0] = 0; w_[1] = 0; }

  private:
    std::uint64_t *w_;
};

/** Derived value computed on demand from other stats. The evaluator is
 *  a shared function pointer (lives in the schema); only the context
 *  pointer is per-instance. */
class Formula
{
  public:
    Formula(StatGroup *group, const char *name, const char *desc,
            FormulaFn fn, const void *ctx)
        : fn_(fn), ctx_(ctx)
    {
        group->bindFormula(name, desc, fn, ctx);
    }

    Formula(const Formula &) = delete;
    Formula &operator=(const Formula &) = delete;

    double value() const { return fn_ ? fn_(ctx_) : 0.0; }
    void reset() {}

  private:
    FormulaFn fn_;
    const void *ctx_;
};

} // namespace mtrap

#endif // MTRAP_COMMON_STATS_HH
