/**
 * @file
 * trace_tool: the DTR trace workbench.
 *
 *   capture  record a registered synthetic workload into a DTR file,
 *            seeded exactly as runOnce seeds benign cores — so replaying
 *            the capture reproduces the live generator bit-for-bit
 *   convert  ingest a Ramulator-style text trace
 *            ("<bubbles> <rd-addr> [<wr-addr>]" per line)
 *   info     print a trace's header and framing summary
 *   dump     print decoded records
 *   replay   run a simulation with every benign core replaying the
 *            trace (same JSON schema as the figure benches)
 *   gen      regenerate the checked-in miniature traces (traces/)
 *
 * See src/trace/README.md for the format and the seed-purity contract.
 */

#include <cctype>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.hh"
#include "src/sim/runner.hh"
#include "src/trace/dtr.hh"
#include "src/trace/replay.hh"

namespace {

using namespace dapper;

[[noreturn]] void
usage(const char *error = nullptr)
{
    if (error != nullptr)
        std::fprintf(stderr, "trace_tool: %s\n", error);
    std::fputs(
        "usage: trace_tool <command> [args]\n"
        "  capture <workload> <out.dtr> [--records N] [--seed S] "
        "[--core C]\n"
        "      record N records (default 65536) of a registered\n"
        "      synthetic workload; the file's baseSeed is the exact\n"
        "      generator seed (S+13, runOnce's benign-core seeding),\n"
        "      so replaying under seed S reproduces the generator\n"
        "  convert <in.txt> <out.dtr> [--name NAME]\n"
        "      Ramulator-style text: '<bubbles> <rd-addr> [<wr-addr>]'\n"
        "      per line; a present <wr-addr> appends a write record\n"
        "  info <file.dtr>\n"
        "  dump <file.dtr> [--limit N] [--start I]\n"
        "  replay <file.dtr|workload> [--tracker T] [--attack A]\n"
        "         [--nrh N] [--scale X] [--windows N] [--seed S]\n"
        "         [--json FILE]\n"
        "  gen [outdir]   regenerate the checked-in miniature traces\n"
        "                 (default outdir: the trace directory)\n",
        stderr);
    std::exit(2);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage("missing value for flag");
    return argv[++i];
}

std::uint64_t
parseU64(const char *text, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0')
        usage((std::string("bad ") + what + ": " + text).c_str());
    return v;
}

int
parseInt(const char *text, const char *what)
{
    const std::uint64_t v = parseU64(text, what);
    if (v > INT_MAX)
        usage((std::string("bad ") + what + ": " + text).c_str());
    return static_cast<int>(v);
}

double
parseReal(const char *text, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v))
        usage((std::string("bad ") + what + ": " + text).c_str());
    return v;
}

int
cmdCapture(int argc, char **argv)
{
    if (argc < 2)
        usage("capture needs <workload> <out.dtr>");
    const std::string workload = argv[0];
    const std::string outPath = argv[1];
    std::uint64_t records = 65536;
    std::uint64_t seed = SysConfig().seed;
    int core = 0;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--records") == 0)
            records = parseU64(argValue(argc, argv, i), "--records");
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = parseU64(argValue(argc, argv, i), "--seed");
        else if (std::strcmp(argv[i], "--core") == 0)
            core = parseInt(argValue(argc, argv, i), "--core");
        else
            usage("unknown capture flag");
    }
    if (records == 0)
        usage("--records must be >= 1");

    const WorkloadInfo *info =
        WorkloadRegistry::instance().find(workload);
    if (info == nullptr)
        usage(("unknown workload '" + workload + "'").c_str());

    SysConfig cfg;
    cfg.seed = seed;
    // The exact seed runOnce hands benign core generators; recording it
    // as baseSeed is what makes replay under `seed` bit-identical.
    const std::uint64_t genSeed = cfg.seed + 13;
    auto gen = info->make(cfg, core, genSeed);
    TraceWriter writer(outPath, workload, genSeed);
    for (std::uint64_t n = 0; n < records; ++n)
        writer.append(gen->next());
    writer.close();
    std::printf("captured %" PRIu64 " records of %s (core %d, seed %"
                PRIu64 ") -> %s\n",
                records, workload.c_str(), core, seed, outPath.c_str());
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 2)
        usage("convert needs <in.txt> <out.dtr>");
    const std::string inPath = argv[0];
    const std::string outPath = argv[1];
    std::string name;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--name") == 0)
            name = argValue(argc, argv, i);
        else
            usage("unknown convert flag");
    }
    if (name.empty()) {
        // Basename without extension.
        name = inPath;
        const std::size_t slash = name.find_last_of('/');
        if (slash != std::string::npos)
            name = name.substr(slash + 1);
        const std::size_t dot = name.find_last_of('.');
        if (dot != std::string::npos && dot > 0)
            name = name.substr(0, dot);
    }

    std::FILE *in = std::fopen(inPath.c_str(), "r");
    if (in == nullptr) {
        std::perror(inPath.c_str());
        return 1;
    }
    TraceWriter writer(outPath, name, 0);
    char line[512];
    std::uint64_t lineNo = 0;
    while (std::fgets(line, sizeof line, in) != nullptr) {
        ++lineNo;
        char *p = line;
        while (std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        if (*p == '\0' || *p == '#')
            continue;
        char *end = nullptr;
        const unsigned long long bubbles = std::strtoull(p, &end, 0);
        if (end == p) {
            std::fprintf(stderr, "%s:%" PRIu64 ": bad bubble count\n",
                         inPath.c_str(), lineNo);
            std::fclose(in);
            return 1;
        }
        p = end;
        const unsigned long long rdAddr = std::strtoull(p, &end, 0);
        if (end == p) {
            std::fprintf(stderr, "%s:%" PRIu64 ": missing read address\n",
                         inPath.c_str(), lineNo);
            std::fclose(in);
            return 1;
        }
        TraceRecord rec;
        rec.bubbles = static_cast<std::uint32_t>(bubbles);
        rec.addr = rdAddr;
        writer.append(rec);
        p = end;
        const unsigned long long wrAddr = std::strtoull(p, &end, 0);
        if (end != p) {
            // Ramulator's optional writeback column: an extra write
            // record with no leading bubbles.
            TraceRecord wb;
            wb.isWrite = true;
            wb.addr = wrAddr;
            writer.append(wb);
        }
    }
    std::fclose(in);
    if (writer.recordCount() == 0) {
        std::fprintf(stderr, "%s: no trace records found\n",
                     inPath.c_str());
        return 1;
    }
    const std::uint64_t count = writer.recordCount();
    writer.close();
    std::printf("converted %" PRIu64 " records ('%s') -> %s\n", count,
                name.c_str(), outPath.c_str());
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 1)
        usage("info needs exactly <file.dtr>");
    TraceReader reader(argv[0]);
    std::printf("path:      %s\n", reader.path().c_str());
    std::printf("name:      %s\n", reader.name().c_str());
    std::printf("version:   %u\n", kDtrVersion);
    std::printf("baseSeed:  %" PRIu64 "\n", reader.baseSeed());
    std::printf("records:   %" PRIu64 "\n", reader.recordCount());
    std::printf("blocks:    %zu\n", reader.blockCount());
    std::printf("bytes:     %zu (%.2f bytes/record)\n",
                reader.fileBytes(),
                static_cast<double>(reader.fileBytes()) /
                    static_cast<double>(reader.recordCount()));
    return 0;
}

int
cmdDump(int argc, char **argv)
{
    if (argc < 1)
        usage("dump needs <file.dtr>");
    std::uint64_t limit = 32;
    std::uint64_t start = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--limit") == 0)
            limit = parseU64(argValue(argc, argv, i), "--limit");
        else if (std::strcmp(argv[i], "--start") == 0)
            start = parseU64(argValue(argc, argv, i), "--start");
        else
            usage("unknown dump flag");
    }
    TraceReader reader(argv[0]);
    TraceReader::Cursor cursor(reader, start);
    for (std::uint64_t n = 0;
         n < limit && n < reader.recordCount(); ++n) {
        const std::uint64_t index = cursor.index();
        const TraceRecord rec = cursor.next();
        std::printf("%8" PRIu64 ": bubbles=%u %s%s addr=0x%" PRIx64 "\n",
                    index, rec.bubbles, rec.isWrite ? "W" : "R",
                    rec.bypassLlc ? "!" : " ", rec.addr);
    }
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 1)
        usage("replay needs <file.dtr | workload>");
    const std::string target = argv[0];
    std::string tracker = "none";
    std::string attack = "none";
    std::string jsonPath;
    SysConfig cfg;
    int windows = 2;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tracker") == 0)
            tracker = argValue(argc, argv, i);
        else if (std::strcmp(argv[i], "--attack") == 0)
            attack = argValue(argc, argv, i);
        else if (std::strcmp(argv[i], "--json") == 0)
            jsonPath = argValue(argc, argv, i);
        else if (std::strcmp(argv[i], "--nrh") == 0)
            cfg.nRH = parseInt(argValue(argc, argv, i), "--nrh");
        else if (std::strcmp(argv[i], "--scale") == 0)
            cfg.timeScale = parseReal(argValue(argc, argv, i), "--scale");
        else if (std::strcmp(argv[i], "--windows") == 0)
            windows = parseInt(argValue(argc, argv, i), "--windows");
        else if (std::strcmp(argv[i], "--seed") == 0)
            cfg.seed = parseU64(argValue(argc, argv, i), "--seed");
        else
            usage("unknown replay flag");
    }
    if (windows < 1)
        usage("--windows must be >= 1");
    // --nrh and --scale within the simulator's own bounds.
    try {
        cfg.validate();
    } catch (const std::invalid_argument &e) {
        usage((std::string("--nrh / --scale: ") + e.what()).c_str());
    }

    // A registered workload name replays as-is; anything else is taken
    // as a DTR path and registered ad hoc (absolutized, so a CWD-
    // relative path is not re-resolved against the trace directory).
    std::string workload = target;
    if (WorkloadRegistry::instance().find(target) == nullptr) {
        std::string path = target;
        if (!path.empty() && path.front() != '/') {
            char *abs = ::realpath(path.c_str(), nullptr);
            if (abs == nullptr) {
                std::fprintf(stderr, "trace_tool: cannot resolve '%s'\n",
                             path.c_str());
                return 1;
            }
            path = abs;
            std::free(abs);
        }
        workload = WorkloadRegistry::instance().ensureTrace(path).name;
    }

    Scenario scenario = Scenario()
                            .config(cfg)
                            .workload(workload)
                            .tracker(tracker)
                            .attack(attack)
                            .windows(windows)
                            .label("replay/" + workload);
    Runner runner;
    const ScenarioResult result = runner.run(scenario);
    std::printf("workload:     %s\n", workload.c_str());
    std::printf("tracker:      %s  attack: %s\n", tracker.c_str(),
                attack.c_str());
    std::printf("benign IPC:   %.6f\n", result.run.benignIpcMean);
    std::printf("activations:  %" PRIu64 "\n", result.run.activations);
    std::printf("mitigations:  %" PRIu64 "\n", result.run.mitigations);
    std::printf("violations:   %" PRIu64 "\n", result.run.rhViolations);
    if (!jsonPath.empty()) {
        std::FILE *out = std::fopen(jsonPath.c_str(), "w");
        if (out == nullptr) {
            std::perror(jsonPath.c_str());
            return 1;
        }
        ResultTable table({result});
        table.writeJson(out, "trace_tool_replay");
        std::fclose(out);
    }
    return 0;
}

// ---------------------------------------------------------------------
// gen: the checked-in miniature traces. Deterministic by construction
// (fixed Rng seeds), ~16K records each, line-aligned addresses inside a
// 256 MB footprint — small enough for CI, distinct enough to exercise
// different row-buffer and cache behaviors.
// ---------------------------------------------------------------------

constexpr std::uint64_t kLine = 64;
constexpr std::uint64_t kGenRecords = 16384;

void
genGcHeavy(TraceWriter &w)
{
    // Alternating phases: allocation bursts (sequential writes, dense)
    // and mark/sweep scans (scattered reads over the whole heap).
    Rng rng(0xDA99E12u);
    std::uint64_t bump = 0;
    const std::uint64_t heapLines = 1u << 20; // 64 MB heap.
    for (std::uint64_t n = 0; n < kGenRecords; ++n) {
        TraceRecord rec;
        if ((n / 512) % 2 == 0) {
            rec.isWrite = true;
            rec.bubbles = 8;
            rec.addr = (bump++ % heapLines) * kLine;
        } else {
            rec.bubbles = 24;
            rec.addr = (rng.next() % heapLines) * kLine;
        }
        w.append(rec);
    }
}

void
genStencil(TraceWriter &w)
{
    // 3-plane sweep: read the row above, the row itself, the row below,
    // then write the result plane — classic stencil locality.
    const std::uint64_t plane = 1u << 14;    // Lines per plane.
    const std::uint64_t outBase = 1u << 21;  // Output plane offset.
    std::uint64_t i = plane;
    for (std::uint64_t n = 0; n + 4 <= kGenRecords; n += 4) {
        TraceRecord rec;
        rec.bubbles = 6;
        rec.addr = (i - plane) * kLine;
        w.append(rec);
        rec.addr = i * kLine;
        w.append(rec);
        rec.addr = (i + plane) * kLine;
        w.append(rec);
        rec.isWrite = true;
        rec.bubbles = 10;
        rec.addr = (outBase + i) * kLine;
        w.append(rec);
        ++i;
    }
}

void
genPtrchase(TraceWriter &w)
{
    // Dependent pointer chase: a full-period LCG walk over a 2^18-line
    // region — every access is a fresh scattered read, latency-bound.
    const std::uint64_t lines = 1u << 18;
    std::uint64_t node = 1;
    for (std::uint64_t n = 0; n < kGenRecords; ++n) {
        node = (node * 1664525 + 1013904223) % lines;
        TraceRecord rec;
        rec.bubbles = 48;
        rec.addr = node * kLine;
        w.append(rec);
    }
}

void
genStream(TraceWriter &w)
{
    // Streaming copy: sequential reads with a paired writeback every
    // other access — bandwidth-bound, maximal row-buffer hit rate.
    const std::uint64_t dstBase = 1u << 22;
    std::uint64_t i = 0;
    for (std::uint64_t n = 0; n + 2 <= kGenRecords; n += 2) {
        TraceRecord rec;
        rec.bubbles = 2;
        rec.addr = i * kLine;
        w.append(rec);
        rec.isWrite = true;
        rec.addr = (dstBase + i) * kLine;
        w.append(rec);
        ++i;
    }
}

int
cmdGen(int argc, char **argv)
{
    if (argc > 1)
        usage("gen takes at most [outdir]");
    const std::string dir = argc == 1 ? argv[0] : traceDir();
    struct GenSpec
    {
        const char *file;
        const char *name;
        void (*fill)(TraceWriter &);
    };
    static const GenSpec kSpecs[] = {
        {"gc_heavy.dtr", "gc-heavy", genGcHeavy},
        {"stencil.dtr", "stencil", genStencil},
        {"ptrchase.dtr", "ptrchase", genPtrchase},
        {"stream.dtr", "stream", genStream},
    };
    for (const GenSpec &spec : kSpecs) {
        const std::string path = dir + "/" + spec.file;
        TraceWriter writer(path, spec.name, 0);
        spec.fill(writer);
        const std::uint64_t count = writer.recordCount();
        writer.close();
        TraceReader check(path); // Round-trip validation.
        std::printf("%s: %" PRIu64 " records, %zu blocks, %zu bytes\n",
                    path.c_str(), count, check.blockCount(),
                    check.fileBytes());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "capture")
            return cmdCapture(argc - 2, argv + 2);
        if (cmd == "convert")
            return cmdConvert(argc - 2, argv + 2);
        if (cmd == "info")
            return cmdInfo(argc - 2, argv + 2);
        if (cmd == "dump")
            return cmdDump(argc - 2, argv + 2);
        if (cmd == "replay")
            return cmdReplay(argc - 2, argv + 2);
        if (cmd == "gen")
            return cmdGen(argc - 2, argv + 2);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "trace_tool: %s\n", e.what());
        return 1;
    }
    usage(("unknown command '" + cmd + "'").c_str());
}
