#include "perf/bench_compare.hh"

#include <cmath>
#include <map>

#include "common/json.hh"
#include "common/log.hh"
#include "perf/perf_suite.hh"

namespace mtrap::perf
{

bool
parseBenchJson(const std::string &text, BenchFile &out, std::string &err)
{
    JsonValue root;
    if (!parseJson(text, root, err))
        return false;
    if (root.kind != JsonValue::Kind::Object) {
        err = "top level is not an object";
        return false;
    }

    const JsonValue *schema = root.field("schema");
    if (!schema || schema->kind != JsonValue::Kind::String) {
        err = "missing \"schema\" tag";
        return false;
    }
    if (schema->string != "mtrap-bench-v1") {
        err = "unknown schema '" + schema->string + "'";
        return false;
    }
    out.schema = schema->string;

    if (const JsonValue *mode = root.field("mode");
        mode && mode->kind == JsonValue::Kind::String)
        out.mode = mode->string;
    out.workVersion = static_cast<unsigned>(
        jsonNumberField(root, "work_version", 0.0));
    out.measureInstructions = static_cast<std::uint64_t>(
        jsonNumberField(root, "measure_instructions", 0.0));
    out.warmupInstructions = static_cast<std::uint64_t>(
        jsonNumberField(root, "warmup_instructions", 0.0));

    const JsonValue *scenarios = root.field("scenarios");
    if (!scenarios || scenarios->kind != JsonValue::Kind::Array) {
        err = "missing \"scenarios\" array";
        return false;
    }
    for (const JsonValue &s : scenarios->array) {
        const JsonValue *name = s.field("name");
        if (!name || name->kind != JsonValue::Kind::String) {
            err = "scenario without a name";
            return false;
        }
        BenchScenario bs;
        bs.name = name->string;
        const JsonValue *ok = s.field("ok");
        bs.ok = ok && ok->kind == JsonValue::Kind::Bool && ok->boolean;
        bs.wallSeconds = jsonNumberField(s, "wall_seconds", 0.0);
        bs.instructionsPerSecond =
            jsonNumberField(s, "instructions_per_second", 0.0);
        bs.instructions = static_cast<std::uint64_t>(
            jsonNumberField(s, "instructions", 0.0));
        bs.simCycles = static_cast<std::uint64_t>(
            jsonNumberField(s, "sim_cycles", 0.0));
        out.scenarios.push_back(std::move(bs));
    }

    if (const JsonValue *agg = root.field("aggregate")) {
        out.scoreKips = jsonNumberField(*agg, "score_kips", 0.0);
        const JsonValue *ok = agg->field("ok");
        out.ok = ok && ok->kind == JsonValue::Kind::Bool && ok->boolean;
    }
    return true;
}

BenchFile
benchFileFromResults(const std::vector<ScenarioResult> &results,
                     const PerfOptions &opt)
{
    BenchFile f;
    f.schema = "mtrap-bench-v1";
    f.mode = opt.quick ? "quick" : "full";
    f.workVersion = kBenchWorkVersion;
    f.measureInstructions = opt.measureInstructions;
    f.warmupInstructions = opt.warmupInstructions;
    f.ok = true;
    for (const ScenarioResult &r : results) {
        BenchScenario bs;
        bs.name = r.name;
        bs.ok = r.ok;
        bs.wallSeconds = r.wallSeconds;
        bs.instructionsPerSecond = r.instructionsPerSecond();
        bs.instructions = r.instructions;
        bs.simCycles = r.simCycles;
        f.scenarios.push_back(std::move(bs));
        f.ok = f.ok && r.ok;
    }
    f.scoreKips = aggregateScoreKips(results);
    return f;
}

CompareReport
compareBench(const BenchFile &baseline, const BenchFile &candidate,
             const CompareOptions &opt)
{
    CompareReport rep;
    std::string &txt = rep.text;

    bool candidate_errors = false;
    for (const BenchScenario &s : candidate.scenarios) {
        if (!s.ok) {
            txt += strfmt("FAIL  %-40s scenario errored\n",
                          s.name.c_str());
            candidate_errors = true;
        }
    }

    // Simulated work is comparable only between runs of the same mode,
    // run lengths and work version.
    const bool same_work =
        !baseline.mode.empty() && baseline.mode == candidate.mode
        && baseline.workVersion == candidate.workVersion
        && baseline.measureInstructions == candidate.measureInstructions
        && baseline.warmupInstructions == candidate.warmupInstructions;
    if (!same_work) {
        auto shape = [](const BenchFile &f) {
            return strfmt("%s v%u %llu/%llu", f.mode.c_str(),
                          f.workVersion,
                          static_cast<unsigned long long>(
                              f.measureInstructions),
                          static_cast<unsigned long long>(
                              f.warmupInstructions));
        };
        txt += "note  runs differ in mode, work version or length (" +
               shape(baseline) + " vs " + shape(candidate) +
               "); simulated work not compared\n";
    }

    std::map<std::string, const BenchScenario *> base_by_name;
    for (const BenchScenario &s : baseline.scenarios)
        base_by_name[s.name] = &s;

    double logsum = 0.0;
    for (const BenchScenario &s : candidate.scenarios) {
        const auto it = base_by_name.find(s.name);
        if (it == base_by_name.end()) {
            txt += strfmt("new   %-40s %10.0f kinst/s (no baseline)\n",
                          s.name.c_str(),
                          s.instructionsPerSecond / 1e3);
            continue;
        }
        const BenchScenario &b = *it->second;
        base_by_name.erase(it);
        if (!s.ok)
            continue; // already reported as an error above
        if (same_work && b.ok
            && (s.instructions != b.instructions
                || s.simCycles != b.simCycles)) {
            txt += strfmt("FAIL  %-40s simulated work changed: "
                          "instructions %llu -> %llu, sim_cycles "
                          "%llu -> %llu\n",
                          s.name.c_str(),
                          static_cast<unsigned long long>(b.instructions),
                          static_cast<unsigned long long>(s.instructions),
                          static_cast<unsigned long long>(b.simCycles),
                          static_cast<unsigned long long>(s.simCycles));
            ++rep.workMismatches;
        }
        if (!(s.instructionsPerSecond > 0.0) ||
            !std::isfinite(s.instructionsPerSecond)) {
            // "Ran fine" but produced no (or non-finite) throughput: an
            // infinite regression must not vanish from the geomean
            // silently. The negated comparison deliberately catches
            // NaN, which fails every ordered compare.
            txt += strfmt("FAIL  %-40s zero throughput in candidate\n",
                          s.name.c_str());
            candidate_errors = true;
            continue;
        }
        if (!b.ok || !(b.instructionsPerSecond > 0.0) ||
            !std::isfinite(b.instructionsPerSecond)) {
            // A NaN/inf/zero baseline (hand-edited or produced by a
            // broken run) must not poison the geomean: log(NaN) would
            // propagate into the verdict and `NaN > threshold` is
            // false, silently passing any regression.
            txt += strfmt("skip  %-40s baseline has no valid "
                          "throughput\n",
                          s.name.c_str());
            continue;
        }
        const double ratio =
            s.instructionsPerSecond / b.instructionsPerSecond;
        logsum += std::log(ratio);
        ++rep.commonScenarios;
        txt += strfmt("      %-40s %10.0f -> %10.0f kinst/s  (%+.1f%%)\n",
                      s.name.c_str(), b.instructionsPerSecond / 1e3,
                      s.instructionsPerSecond / 1e3,
                      (ratio - 1.0) * 100.0);
    }
    for (const auto &[name, s] : base_by_name) {
        (void)s;
        txt += strfmt("gone  %-40s dropped from the suite\n",
                      name.c_str());
    }

    rep.geomeanRatio =
        rep.commonScenarios
            ? std::exp(logsum
                       / static_cast<double>(rep.commonScenarios))
            : 1.0;

    const double regress_pct = (1.0 - rep.geomeanRatio) * 100.0;
    // Strictly-worse-than-threshold fails; a geomean at exactly the
    // threshold passes. The epsilon absorbs the log/exp round-trip so
    // the boundary does not flip on the last ulp.
    const bool regressed = rep.commonScenarios
                           && regress_pct - opt.maxRegressPct > 1e-9;
    rep.pass = !candidate_errors && !regressed && !rep.workMismatches;

    if (rep.commonScenarios) {
        txt += strfmt("geomean over %zu common scenario(s): %+.1f%% "
                      "(threshold -%.1f%%)\n",
                      rep.commonScenarios,
                      (rep.geomeanRatio - 1.0) * 100.0,
                      opt.maxRegressPct);
    } else {
        txt += "no common scenarios; throughput not compared\n";
    }
    if (rep.pass)
        txt += "PASS: no perf regression\n";
    if (candidate_errors)
        txt += "FAIL: scenario errors in candidate run\n";
    if (rep.workMismatches)
        txt += strfmt("FAIL: simulated work changed in %zu scenario(s)\n",
                      rep.workMismatches);
    if (regressed)
        txt += "FAIL: geomean throughput regression\n";
    return rep;
}

} // namespace mtrap::perf
