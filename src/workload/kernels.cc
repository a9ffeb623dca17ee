#include "workload/kernels.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/mem_system.hh"

namespace mtrap
{

namespace
{

// Register conventions for generated programs.
constexpr unsigned kRZero = 0;      // never written, always 0
constexpr unsigned kRStreamIdx = 1;
constexpr unsigned kRStreamTmp = 2;
constexpr unsigned kRLcgBase = 3;   // r3..r8: LCG states (MLP streams)
constexpr unsigned kRChase = 9;
constexpr unsigned kRPrivBase = 10;
constexpr unsigned kRPrivMask = 11;
constexpr unsigned kRSharedIdx = 12;
constexpr unsigned kRSharedTmp = 13;
constexpr unsigned kRBranchTmp = 14;
constexpr unsigned kRAccA = 15;
constexpr unsigned kRAccB = 16;
constexpr unsigned kRAccC = 17;
constexpr unsigned kRStoreVal = 18;
constexpr unsigned kRAddrTmp = 20;
constexpr unsigned kRLcgMul = 21;
constexpr unsigned kRSharedBase = 22;
constexpr unsigned kRSharedMask = 23;
constexpr unsigned kRHotMask = 24;
constexpr unsigned kRChaseMask = 25;
constexpr unsigned kRChaseBase = 26;
constexpr unsigned kRRandTmp = 27;

constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;
constexpr unsigned kMaxMlp = 6;

Addr
privateBase(unsigned thread_id)
{
    return WorkloadLayout::kPrivateBase
           + thread_id * WorkloadLayout::kThreadStride;
}

Addr
chaseBase(unsigned thread_id)
{
    return WorkloadLayout::kChaseBase
           + thread_id * WorkloadLayout::kThreadStride;
}

/** Emits one loop body worth of kernel fragments in a shuffled,
 *  deterministic interleave. */
class BodyEmitter
{
  public:
    BodyEmitter(ProgramBuilder &b, const WorkloadProfile &p,
                unsigned thread_id, Rng &rng, unsigned block_id)
        : b_(b), p_(p), rng_(rng), block_(block_id)
    {
        (void)thread_id;
    }

    void
    emitBody()
    {
        // Build the fragment schedule.
        std::vector<unsigned> sched;
        auto push = [&sched](unsigned kind, unsigned count) {
            for (unsigned i = 0; i < count; ++i)
                sched.push_back(kind);
        };
        push(0, p_.streamOps);
        push(1, p_.randomOps);
        push(2, p_.chaseOps);
        push(3, p_.computeOps);
        push(4, p_.branchyOps);
        push(5, p_.sharedOps);
        push(6, p_.indirectOps);
        // Deterministic shuffle.
        for (std::size_t i = sched.size(); i > 1; --i)
            std::swap(sched[i - 1], sched[rng_.below(i)]);

        for (unsigned kind : sched) {
            switch (kind) {
              case 0: stream(); break;
              case 1: random(); break;
              case 2: chase(); break;
              case 3: compute(); break;
              case 4: branchy(); break;
              case 5: shared(); break;
              case 6: indirect(); break;
            }
        }
    }

  private:
    void
    stream()
    {
        // addr = privBase + streamIdx; idx += stride; idx &= mask.
        // With the default 8-byte stride, eight consecutive ops touch
        // the same line (spatial locality); large strides model
        // line-skipping stencils.
        b_.load(kRStreamTmp, kRPrivBase, 0, kRStreamIdx, 0);
        if (p_.storePct && rng_.below(100) < p_.storePct)
            b_.store(kRStreamTmp, kRPrivBase, 8, kRStreamIdx, 0);
        b_.addi(kRStreamIdx, kRStreamIdx,
                static_cast<std::int64_t>(p_.streamStrideBytes));
        // AND with a register mask (kRPrivMask).
        MicroOp m;
        m.type = OpType::IntAlu;
        m.alu = AluOp::And;
        m.dst = kRStreamIdx;
        m.src1 = kRStreamIdx;
        m.src2 = kRPrivMask;
        b_.emit(m);
    }

    void
    random()
    {
        const unsigned streams = std::min(std::max(1u, p_.mlp), kMaxMlp);
        const unsigned r = kRLcgBase + (randomRound_++ % streams);
        // r = r * LCGMUL + LCGADD (register-held multiplier)
        b_.mul(r, r, kRLcgMul);
        b_.addi(r, r, static_cast<std::int64_t>(kLcgAdd & 0x7fffffff));
        // idx = (r >> 17) & mask. Statically partition accesses between
        // the hot region and the full footprint per hotPct (temporal
        // locality knob).
        const bool hot = rng_.below(100) < p_.hotPct;
        b_.shri(kRAddrTmp, r, 17);
        MicroOp m;
        m.type = OpType::IntAlu;
        m.alu = AluOp::And;
        m.dst = kRAddrTmp;
        m.src1 = kRAddrTmp;
        m.src2 = hot ? kRHotMask : kRPrivMask;
        b_.emit(m);
        // Load into a dedicated register: the index register must stay
        // intact for the (optional) store's address below.
        b_.load(kRRandTmp, kRPrivBase, 0, kRAddrTmp, 0);
        if (p_.storePct && rng_.below(100) < p_.storePct)
            b_.store(kRRandTmp, kRPrivBase, 16, kRAddrTmp, 0);
    }

    void
    chase()
    {
        // Dependent load: the ring stores absolute virtual addresses.
        b_.load(kRChase, kRChase, 0);
        // Real traversal loops branch on the loaded pointer ("while
        // (node)...", "if (node->key < x)..."), so the branch resolves
        // only after the load returns. This is precisely what makes
        // load-restricting schemes (STT/NDA) expensive on pointer
        // chasing (§6.3) and opens speculation windows after each hop.
        b_.shri(kRBranchTmp, kRChase, 6);
        b_.andi(kRBranchTmp, kRBranchTmp, 1);
        const std::string skip = strfmt("chs_%u_%u", block_, labelId_++);
        b_.braEq(skip, kRBranchTmp, kRZero);
        b_.label(skip);
    }

    void
    indirect()
    {
        // ptr = table[random]; value = *ptr. The table loads are
        // independent (memory-level parallelism); the dereferences
        // depend on them. Load-restricting defences delay every
        // dereference until the pointer is untainted, serialising what
        // the baseline overlaps.
        const unsigned streams = std::min(std::max(1u, p_.mlp), kMaxMlp);
        const unsigned r = kRLcgBase + (randomRound_++ % streams);
        b_.mul(r, r, kRLcgMul);
        b_.addi(r, r, static_cast<std::int64_t>(kLcgAdd & 0x7fffffff));
        b_.shri(kRAddrTmp, r, 17);
        MicroOp m;
        m.type = OpType::IntAlu;
        m.alu = AluOp::And;
        m.dst = kRAddrTmp;
        m.src1 = kRAddrTmp;
        m.src2 = kRChaseMask;
        b_.emit(m);
        b_.andi(kRAddrTmp, kRAddrTmp, -64); // node-aligned table slot
        b_.load(kRAddrTmp, kRChaseBase, 0, kRAddrTmp, 0);
        b_.load(kRAddrTmp, kRAddrTmp, 0);
    }

    void
    compute()
    {
        // Three rotating accumulator chains (ILP ~3) that consume the
        // most recent memory results, so load latency sits on real
        // dataflow instead of being hidden behind one serial ALU chain.
        const unsigned acc = kRAccA + (computeRound_ % 3);
        const unsigned feed =
            (computeRound_ % 2) ? kRStreamTmp : kRRandTmp;
        ++computeRound_;
        const bool fp = rng_.below(100) < p_.fpPct;
        const bool mul = !fp && rng_.below(100) < p_.mulPct;
        if (fp)
            b_.fp(acc, acc, feed);
        else if (mul)
            b_.mul(acc, acc, feed);
        else
            b_.add(acc, acc, feed);
    }

    void
    branchy()
    {
        const bool random_branch = rng_.below(100) < p_.branchRandomPct;
        if (random_branch) {
            // Branch on a data-dependent bit: load a pseudo-random word
            // from the private region and test bit 0. Unwritten memory
            // reads as an address hash, so outcomes are ~uniform.
            b_.mul(kRBranchTmp, kRLcgBase, kRLcgMul);
            b_.shri(kRAddrTmp, kRBranchTmp, 23);
            MicroOp m;
            m.type = OpType::IntAlu;
            m.alu = AluOp::And;
            m.dst = kRAddrTmp;
            m.src1 = kRAddrTmp;
            m.src2 = kRHotMask;
            b_.emit(m);
            b_.load(kRBranchTmp, kRPrivBase, 24, kRAddrTmp, 0);
            b_.andi(kRBranchTmp, kRBranchTmp, 1);
        } else {
            // Perfectly biased: condition register is always zero.
            b_.movi(kRBranchTmp, 0);
        }
        const std::string skip = strfmt("skip_%u_%u", block_, labelId_++);
        b_.braNe(skip, kRBranchTmp, kRZero);
        b_.add(kRAccB, kRAccB, kRAccA);
        b_.label(skip);
    }

    void
    shared()
    {
        if (!p_.sharedFootprint)
            return;
        // idx advances densely through the shared region from a
        // per-thread starting offset; threads periodically cross each
        // other's ranges, generating coherence traffic without the
        // line-per-op invalidation storms real sharing doesn't have.
        b_.addi(kRSharedIdx, kRSharedIdx, 8);
        MicroOp m;
        m.type = OpType::IntAlu;
        m.alu = AluOp::And;
        m.dst = kRSharedIdx;
        m.src1 = kRSharedIdx;
        m.src2 = kRSharedMask;
        b_.emit(m);
        b_.load(kRSharedTmp, kRSharedBase, 0, kRSharedIdx, 0);
        if (p_.sharedStorePct && rng_.below(100) < p_.sharedStorePct)
            b_.store(kRSharedTmp, kRSharedBase, 0, kRSharedIdx, 0);
    }

    ProgramBuilder &b_;
    const WorkloadProfile &p_;
    Rng &rng_;
    unsigned block_;
    unsigned randomRound_ = 0;
    unsigned computeRound_ = 0;
    unsigned labelId_ = 0;
};

} // namespace

Program
buildThreadProgram(const WorkloadProfile &p, unsigned thread_id)
{
    if (!isPow2(p.dataFootprint))
        fatal("workload %s: dataFootprint must be a power of two",
              p.name.c_str());
    if (p.sharedFootprint && !isPow2(p.sharedFootprint))
        fatal("workload %s: sharedFootprint must be a power of two",
              p.name.c_str());

    Rng rng(p.seed * 7919 + thread_id * 131 + 17);
    ProgramBuilder b(strfmt("%s.t%u", p.name.c_str(), thread_id),
                     WorkloadLayout::kCodeBase);

    // ---- Preamble: constants and bases ---------------------------------
    b.movi(kRStreamIdx, 0);
    b.movi(kRPrivBase, static_cast<std::int64_t>(privateBase(thread_id)));
    // Masks keep word-granularity bits so 8-byte advances are not
    // snapped back to the line start (footprint - 8, not - 64).
    b.movi(kRPrivMask,
           static_cast<std::int64_t>(p.dataFootprint - 8));
    const std::uint64_t hot = std::min(p.hotBytes, p.dataFootprint);
    if (!isPow2(hot))
        fatal("workload %s: hotBytes must be a power of two",
              p.name.c_str());
    b.movi(kRHotMask, static_cast<std::int64_t>(hot - 8));
    b.movi(kRLcgMul, static_cast<std::int64_t>(kLcgMul));
    const unsigned streams = std::min(std::max(1u, p.mlp), kMaxMlp);
    for (unsigned s = 0; s < streams; ++s)
        b.movi(kRLcgBase + s,
               static_cast<std::int64_t>(rng.next() | 1));
    b.movi(kRChase, static_cast<std::int64_t>(chaseBase(thread_id)));
    b.movi(kRChaseBase, static_cast<std::int64_t>(chaseBase(thread_id)));
    const std::uint64_t chase_bytes =
        p.chaseBytes ? p.chaseBytes : p.dataFootprint;
    b.movi(kRChaseMask,
           static_cast<std::int64_t>(chase_bytes - 8));
    b.movi(kRAccA, 1);
    b.movi(kRAccB, 2);
    b.movi(kRAccC, 3);
    b.movi(kRStoreVal, 0x5a);
    if (p.sharedFootprint) {
        b.movi(kRSharedBase,
               static_cast<std::int64_t>(WorkloadLayout::kSharedBase));
        b.movi(kRSharedMask,
               static_cast<std::int64_t>(p.sharedFootprint - 8));
        // Threads walk the same shared lines a small distance apart, so
        // one thread's stores invalidate lines its peers are reading —
        // migratory sharing.
        b.movi(kRSharedIdx,
               static_cast<std::int64_t>((thread_id * 2 * kLineBytes)
                                         & (p.sharedFootprint - 1)));
    }

    // ---- Body blocks -----------------------------------------------------
    const unsigned blocks = std::max(1u, p.codeBlocks);
    b.label("top");
    for (unsigned blk = 0; blk < blocks; ++blk) {
        BodyEmitter em(b, p, thread_id, rng, blk);
        em.emitBody();
        if (blk + 1 < blocks) {
            // Chain into the next block (sequential fall-through would
            // do, but the explicit branch keeps blocks recognisable and
            // exercises the front end).
            const std::string next = strfmt("blk_%u", blk + 1);
            b.bra(next);
            b.label(next);
        }
    }
    b.bra("top");
    // Unreachable, but keeps the program well-formed for tooling.
    b.halt();
    return b.take();
}

void
initChaseRing(MemSystem &mem, Asid asid, const WorkloadProfile &p,
              unsigned thread_id)
{
    if (!p.chaseOps && !p.indirectOps)
        return;
    const std::uint64_t bytes = p.chaseBytes ? p.chaseBytes
                                             : p.dataFootprint;
    const std::uint64_t nodes =
        std::max<std::uint64_t>(2, bytes / kLineBytes);
    const Addr base = chaseBase(thread_id);

    // Sattolo's algorithm: a single-cycle random permutation.
    std::vector<std::uint64_t> next(nodes);
    for (std::uint64_t i = 0; i < nodes; ++i)
        next[i] = i;
    Rng rng(p.seed * 31 + thread_id + 5);
    for (std::uint64_t i = nodes - 1; i > 0; --i)
        std::swap(next[i], next[rng.below(i)]);
    // next[] is now a permutation with one cycle through all nodes when
    // read as succ(i) = next[i]; write the ring into memory.
    for (std::uint64_t i = 0; i < nodes; ++i)
        mem.write(asid, base + i * kLineBytes,
                  base + next[i] * kLineBytes);
}

Workload
buildWorkload(const WorkloadProfile &profile, Asid asid)
{
    Workload w;
    w.name = profile.name;
    w.asid = asid;
    w.seed = profile.seed;
    for (unsigned t = 0; t < std::max(1u, profile.threads); ++t)
        w.threadPrograms.push_back(buildThreadProgram(profile, t));
    WorkloadProfile p = profile;
    w.init = [p, asid](MemSystem &mem) {
        for (unsigned t = 0; t < std::max(1u, p.threads); ++t)
            initChaseRing(mem, asid, p, t);
    };
    return w;
}

} // namespace mtrap
