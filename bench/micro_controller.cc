/**
 * @file
 * Controller microbench: queue-depth sweep isolating FR-FCFS issue-scan
 * cost. Drives one MemController directly (no cores / LLC) with a
 * closed-loop load that holds the read queue at a target depth across
 * all banks, in two row patterns:
 *
 *   hits    - consecutive same-bank requests share rows, so service is
 *             row-hit dominated (the window scan usually stops at an
 *             early ready row hit);
 *   misses  - every request opens a new row, the worst case for
 *             candidate selection (the scan walks the whole window
 *             looking for a row hit that never comes).
 *
 * The round-robin spread across all 64 banks fills the 48-entry scan
 * window once the queue is that deep, so this is the one end-to-end
 * shape that exercises a full-window FR-FCFS walk; the DAPPER attack
 * benches keep queues shallow.
 *
 * The controller runs with the issue memo on and is visited only at its
 * nextWorkAt() watermark, as System::run drives it. That this matches a
 * memo-off controller ticked every tick, on this same round-robin
 * stimulus, is pinned by ControllerEngineContractTest in
 * tests/controller_test.cc.
 */

#include <cinttypes>

#include "bench/bench_util.hh"
#include "src/mem/controller.hh"

namespace {

using namespace dapper;

struct RefillSink : MemSink
{
    MemController *mc = nullptr;
    std::uint64_t completed = 0;
    std::uint64_t remaining = 0; ///< Requests still to inject.
    std::uint64_t injected = 0;
    int numBanks = 0;
    int banksPerRank = 0;
    bool missHeavy = false;

    Request
    make(std::uint64_t n)
    {
        // Spread across every bank of both ranks; the row stream either
        // revisits a small working set per bank (hit-friendly) or walks
        // new rows forever (miss-heavy).
        Request req;
        const int bankId = static_cast<int>(n) % numBanks;
        req.dram.channel = 0;
        req.dram.rank = bankId / banksPerRank;
        req.dram.bank = bankId % banksPerRank;
        // Per-bank visit number: rows repeat for 8 consecutive visits
        // (hit-friendly) or never (miss-heavy).
        const std::uint64_t visit = n / static_cast<unsigned>(numBanks);
        req.dram.row = missHeavy
                           ? static_cast<std::int32_t>(visit % 4096)
                           : static_cast<std::int32_t>((visit / 8) % 4);
        req.dram.col = 0;
        req.type = ReqType::Read;
        req.sink = this;
        return req;
    }

    void
    memDone(const Request &, Tick now) override
    {
        ++completed;
        // Closed loop: replace each completion so the queue holds its
        // depth. Refill timing depends only on completion times.
        if (remaining > 0 && mc->enqueue(make(injected), now)) {
            --remaining;
            ++injected;
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace dapper::benchutil;

    // Drives a bare MemController: only the config flags apply.
    const Options opt = parse(argc, argv, kComponentBench);
    const SysConfig cfg = makeConfig(opt);
    printHeader("Controller micro: queue-depth sweep (issue-scan cost)",
                cfg);

    const int numBanks = cfg.ranksPerChannel * cfg.banksPerRank();
    const std::size_t depths[] = {8, 48, 128, 256, 512};
    const bool patterns[] = {false, true};

    std::printf("%-14s %6s %10s %10s %10s %10s %10s\n", "Pattern",
                "Depth", "Reads", "RowHits", "RowMisses", "AvgLat",
                "P99Lat");
    for (const bool missHeavy : patterns) {
        for (const std::size_t depth : depths) {
            MemController mc(cfg, 0, nullptr, nullptr, nullptr);
            mc.setEventScheduling(true);

            RefillSink sink;
            sink.mc = &mc;
            sink.numBanks = numBanks;
            sink.banksPerRank = cfg.banksPerRank();
            sink.missHeavy = missHeavy;
            // Total volume scales with depth so deep cells dominate the
            // wall-clock, and with --windows for CI-tunable runtimes.
            const std::uint64_t total =
                depth * 768 * static_cast<std::uint64_t>(opt.windows);
            sink.remaining = total;
            Tick now = 0;
            for (std::size_t i = 0; i < depth && sink.remaining > 0;
                 ++i) {
                if (!mc.enqueue(sink.make(sink.injected), now))
                    break;
                --sink.remaining;
                ++sink.injected;
            }

            const Tick guard = static_cast<Tick>(total) * 4096;
            while (sink.completed < sink.injected && now < guard) {
                now = std::max(now + 1, mc.nextWorkAt());
                mc.tick(now);
            }

            const auto &s = mc.stats();
            std::printf("%-14s %6zu %10" PRIu64 " %10" PRIu64
                        " %10" PRIu64 " %10.1f %10" PRIu64 "\n",
                        missHeavy ? "miss-heavy" : "hit-friendly", depth,
                        s.reads, s.rowHits, s.rowMisses,
                        s.avgReadLatency(),
                        static_cast<std::uint64_t>(s.p99ReadLatency()));
        }
    }
    return 0;
}
