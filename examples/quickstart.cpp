/**
 * @file
 * Quickstart: build a Table-1 system, run one SPEC-like workload under
 * the unprotected baseline and under full MuonTrap, and print the
 * normalised execution time plus the key filter-cache statistics.
 *
 * Usage: quickstart [benchmark] (default: povray)
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "sim/runner.hh"
#include "workload/spec_profiles.hh"

int
main(int argc, char **argv)
{
    using namespace mtrap;

    const std::string bench = argc > 1 ? argv[1] : "povray";
    std::printf("MuonTrap quickstart: workload '%s'\n\n", bench.c_str());

    const Workload w = buildSpecWorkload(bench);

    const RunResult base =
        run({SystemConfig::forScheme(Scheme::Baseline), w, {}, "Baseline"})
            .result;
    std::printf("  %-20s %10llu cycles  (IPC %.2f)\n", "Baseline",
                static_cast<unsigned long long>(base.cycles), base.ipc);

    // Keep the MuonTrap system alive so we can inspect its stats.
    const RunOutput mt =
        run({SystemConfig::forScheme(Scheme::MuonTrap), w, {}, "MuonTrap"});
    std::printf("  %-20s %10llu cycles  (IPC %.2f)\n", "MuonTrap",
                static_cast<unsigned long long>(mt.result.cycles),
                mt.result.ipc);
    std::printf("\n  normalised execution time: %.3f (1.0 = baseline)\n\n",
                normalizedTime(mt.result, base));

    auto &fc = *mt.system->mem().muontrap(0).dataFilter();
    std::printf("  data filter cache: %llu hits, %llu misses, "
                "%llu speculative fills, %llu uncommitted evictions\n",
                static_cast<unsigned long long>(fc.hits.value()),
                static_cast<unsigned long long>(fc.misses.value()),
                static_cast<unsigned long long>(
                    fc.speculativeFills.value()),
                static_cast<unsigned long long>(
                    fc.uncommittedEvictions.value()));
    std::printf("  commit write-throughs: %llu, SE upgrades: %llu, "
                "coherence NACKs: %llu\n",
                static_cast<unsigned long long>(
                    mt.system->mem().commitWriteThroughs.value()),
                static_cast<unsigned long long>(
                    mt.system->mem().seUpgradeRequests.value()),
                static_cast<unsigned long long>(
                    mt.system->mem().bus().nacks.value()));

    std::printf("\nFull statistics dump:\n\n");
    mt.system->dumpStats(std::cout);
    return 0;
}
