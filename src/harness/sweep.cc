#include "harness/sweep.hh"

#include "common/log.hh"

namespace mtrap::harness
{

SweepBuilder::SweepBuilder(std::string suite) : suite_(std::move(suite)) {}

SweepBuilder &
SweepBuilder::options(const RunOptions &opt)
{
    opt_ = opt;
    return *this;
}

SweepBuilder &
SweepBuilder::seed(std::uint64_t s)
{
    seed_ = s;
    return *this;
}

SweepBuilder &
SweepBuilder::workloads(const std::vector<std::string> &names)
{
    for (const std::string &name : names) {
        rows_.push_back(Row{name, {name}});
        rowLabels_.push_back(name);
    }
    return *this;
}

SweepBuilder &
SweepBuilder::mixRow(const std::string &label,
                     const std::vector<std::string> &names)
{
    if (names.empty())
        fatal("sweep '%s': empty mix row '%s'", suite_.c_str(),
              label.c_str());
    rows_.push_back(Row{label, names});
    rowLabels_.push_back(label);
    return *this;
}

SweepBuilder &
SweepBuilder::schedule(const SchedParams &p, unsigned cores)
{
    if (cores == 0)
        fatal("sweep '%s': scheduled sweep needs cores", suite_.c_str());
    scheduled_ = true;
    sched_ = p;
    schedCores_ = cores;
    return *this;
}

SweepBuilder &
SweepBuilder::withBaseline()
{
    baseline_ = true;
    return *this;
}

SweepBuilder &
SweepBuilder::scheme(Scheme s)
{
    Column c;
    c.label = schemeName(s);
    c.configName = schemeName(s);
    c.cfg = SystemConfig::forScheme(s, 1);
    labels_.push_back(c.label);
    cols_.push_back(std::move(c));
    return *this;
}

SweepBuilder &
SweepBuilder::schemes(const std::vector<Scheme> &ss)
{
    for (Scheme s : ss)
        scheme(s);
    return *this;
}

SweepBuilder &
SweepBuilder::config(std::string label, std::string config_name,
                     const SystemConfig &cfg)
{
    Column c;
    c.label = std::move(label);
    c.configName = std::move(config_name);
    c.cfg = cfg;
    labels_.push_back(c.label);
    cols_.push_back(std::move(c));
    return *this;
}

SweepBuilder &
SweepBuilder::filterSizes(const std::vector<std::uint64_t> &sizes)
{
    for (std::uint64_t size : sizes) {
        SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
        cfg.mem.mt.dataParams.sizeBytes = size;
        cfg.mem.mt.dataParams.assoc =
            static_cast<unsigned>(size / kLineBytes); // fully assoc.
        config(strfmt("%lluB", static_cast<unsigned long long>(size)),
               strfmt("fc%llu", static_cast<unsigned long long>(size)),
               cfg);
    }
    return *this;
}

SweepBuilder &
SweepBuilder::filterAssocs(const std::vector<unsigned> &assocs,
                           std::uint64_t size_bytes)
{
    for (unsigned assoc : assocs) {
        SystemConfig cfg = SystemConfig::forScheme(Scheme::MuonTrap, 1);
        cfg.mem.mt.dataParams.sizeBytes = size_bytes;
        cfg.mem.mt.dataParams.assoc = assoc;
        config(strfmt("%u-way", assoc), strfmt("a%u", assoc), cfg);
    }
    return *this;
}

SweepBuilder &
SweepBuilder::collect(std::function<void(System &, JobResult &)> fn)
{
    collect_ = std::move(fn);
    return *this;
}

std::vector<JobSpec>
SweepBuilder::build() const
{
    if (rows_.empty())
        fatal("sweep '%s': no workloads", suite_.c_str());
    if (cols_.empty())
        fatal("sweep '%s': no columns", suite_.c_str());

    std::vector<JobSpec> jobs;
    jobs.reserve(rows_.size() * (cols_.size() + (baseline_ ? 1 : 0)));

    auto add = [&](const Row &row, const std::string &col,
                   const std::string &kind, const std::string &config_name,
                   const SystemConfig &cfg) {
        JobSpec j;
        j.index = jobs.size();
        j.suite = suite_;
        j.row = row.label;
        j.col = col;
        j.kind = kind;
        const std::uint64_t wl_seed = seed_; // same workload across cols
        j.cfg = cfg;
        const std::vector<std::string> names = row.names;
        if (scheduled_) {
            j.cfg.cores = std::max(j.cfg.cores, schedCores_);
            // Distinct asids: mix members are separate processes.
            j.source = [names, wl_seed, sched = sched_]() -> RunSource {
                MixSource mix{{}, sched};
                for (std::size_t m = 0; m < names.size(); ++m)
                    mix.jobs.push_back(buildNamedWorkload(
                        names[m], wl_seed, static_cast<Asid>(m + 1)));
                return mix;
            };
        } else {
            if (names.size() != 1)
                fatal("sweep '%s': mix row '%s' needs schedule()",
                      suite_.c_str(), row.label.c_str());
            j.source = [name = names[0], wl_seed]() -> RunSource {
                return buildNamedWorkload(name, wl_seed);
            };
        }
        j.configName = config_name;
        j.opt = opt_;
        if (kind != "baseline")
            j.collect = collect_;
        jobs.push_back(std::move(j));
    };

    const SystemConfig base_cfg =
        SystemConfig::forScheme(Scheme::Baseline, 1);
    for (const Row &row : rows_) {
        if (baseline_)
            add(row, schemeName(Scheme::Baseline), "baseline",
                schemeName(Scheme::Baseline), base_cfg);
        for (const Column &c : cols_)
            add(row, c.label, "run", c.configName, c.cfg);
    }
    return jobs;
}

} // namespace mtrap::harness
