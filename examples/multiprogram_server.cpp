/**
 * @file
 * Multi-programmed server scenario: several processes time-share one
 * core under a quantum scheduler while other cores run a parallel
 * workload. Shows the cost of MuonTrap's context-switch filter flushes
 * in a realistic consolidation setting, plus the per-component
 * statistics a performance engineer would inspect.
 *
 * Usage: multiprogram_server [quantum_cycles] (default 50000)
 */

#include <cstdio>
#include <string>

#include "sim/scheduler.hh"
#include "sim/system.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

int
main(int argc, char **argv)
{
    using namespace mtrap;

    const Cycle quantum = argc > 1 ? std::stoull(argv[1]) : 50'000;
    std::printf("Quantum: %llu cycles\n\n",
                static_cast<unsigned long long>(quantum));

    for (Scheme s : {Scheme::Baseline, Scheme::MuonTrap}) {
        System sys(SystemConfig::forScheme(s, 2));

        // Core 0 time-shares three processes; core 1 runs a streaming
        // thread of its own.
        const Workload w1 = buildSpecWorkload("gcc");
        const Workload w2 = buildSpecWorkload("hmmer");
        const Workload w3 = buildSpecWorkload("povray");
        const Workload bg = buildSpecWorkload("libquantum");
        for (const Workload *w : {&w1, &w2, &w3, &bg})
            if (w->init)
                w->init(sys.mem());

        Scheduler sched({&sys.core(0)}, SchedParams{quantum});
        sched.addTask(&w1.threadPrograms[0], 1);
        sched.addTask(&w2.threadPrograms[0], 2);
        sched.addTask(&w3.threadPrograms[0], 3);

        ArchContext bg_ctx;
        bg_ctx.program = &bg.threadPrograms[0];
        bg_ctx.asid = 4;
        sys.core(1).setContext(bg_ctx);

        // Interleave: run the scheduler in slices while the background
        // core catches up.
        std::uint64_t done = 0;
        while (done < 300'000) {
            done += sched.run(20'000);
            while (!sys.core(1).halted() &&
                   sys.core(1).now() < sys.core(0).now())
                sys.core(1).stepOne();
        }

        const Cycle cycles = sys.core(0).lastCommitCycle();
        std::printf("%-22s: %9llu cycles for 300k scheduled instrs, "
                    "%llu switches, %llu filter flushes\n",
                    schemeName(s),
                    static_cast<unsigned long long>(cycles),
                    static_cast<unsigned long long>(sched.switches()),
                    static_cast<unsigned long long>(
                        sys.mem().muontrap(0).flushCtxSwitch.value()));
    }

    std::printf("\nThe filter flush is constant-time, so MuonTrap's "
                "context-switch cost stays\nbounded even at small "
                "quanta (try: multiprogram_server 5000).\n");
    return 0;
}
