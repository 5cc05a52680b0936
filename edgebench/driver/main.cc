/**
 * @file
 * edgebench: one workload of the edge-stack benchmark per invocation.
 *
 *   edgebench --workload chat-sessions|long-decode|lora-finetune
 *             --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * Prints the run's notes, request counts, workload properties and
 * metrics by name, then, as the last stdout line, one JSON object with
 * "correct", "attempted", "failed" and "metrics" (the end-to-end
 * metrics, or the per-layer metrics with --trace 1). Exit status 1
 * means the outputs failed their correctness check; 2 a usage or setup
 * error (no JSON line then).
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

using namespace edgebench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: edgebench --workload chat-sessions|long-decode|"
                 "lora-finetune --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
}

double
finiteOrZero(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

void
printMetrics(const char *kind, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%-9s %-40s %.6g %s\n", kind, m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    opt.out_dir = ".bench_build/edgebench-out";
    bool have_seed = false, have_secs = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::strtoull(v.c_str(), nullptr, 10), have_seed = true;
        else if (k == "--seconds")
            opt.seconds = std::strtod(v.c_str(), nullptr), have_secs = true;
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--out-dir")
            opt.out_dir = v;
        else
            return usage();
    }
    if (argc % 2 != 1 || !have_seed || !have_secs || !(opt.seconds > 0.0))
        return usage();

    Report rep;
    try {
        std::filesystem::create_directories(opt.out_dir);
        if (opt.workload == "chat-sessions")
            rep = runChatSessions(opt);
        else if (opt.workload == "long-decode")
            rep = runLongDecode(opt);
        else if (opt.workload == "lora-finetune")
            rep = runLoraFinetune(opt);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "edgebench: %s\n", e.what());
        return 2;
    }

    std::printf("edgebench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const std::string &n : rep.notes)
        std::printf("%s\n", n.c_str());
    std::printf("requests: sent %lld ok %lld failed %lld, oracle "
                "mismatches %lld -> %s\n",
                static_cast<long long>(rep.attempted),
                static_cast<long long>(rep.ok),
                static_cast<long long>(rep.failed),
                static_cast<long long>(rep.mismatches),
                rep.correct ? "correct" : "INCORRECT");
    printMetrics("property", rep.properties);
    printMetrics("e2e", rep.end_to_end);
    printMetrics("layer", rep.per_layer);

    const std::vector<Metric> &out =
        opt.trace ? rep.per_layer : rep.end_to_end;
    std::string json = "{\"correct\": ";
    json += rep.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i > 0 ? ", " : "", out[i].name.c_str(),
                      finiteOrZero(out[i].value), out[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}
