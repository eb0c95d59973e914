/**
 * @file
 * skybench --workload spark-tc|small-transfer|tcp-bulk --seed N
 *          --seconds S --trace 0|1
 *
 * Runs one workload for S seconds on inputs drawn from seed N and
 * prints, as its last line, one JSON object with the operations
 * attempted and failed, whether the outputs were correct, and the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 * Progress notes go to stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.hh"
#include "obs/span.hh"

using namespace skybench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "skybench: %s\nusage: skybench --workload "
                 "spark-tc|small-transfer|tcp-bulk --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (!(a.seconds > 0))
                usage("--seconds must be positive");
        } else if (key == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                usage("--trace must be 0 or 1");
            a.trace = val[0] == '1';
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end && *end)
            usage(("bad number for " + key).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/**
 * glibc raises its mmap threshold to the size of each mmapped block the
 * process frees, so whether a bring-up's or an operation's blocks of
 * 128 KiB to 32 MiB are fresh mappings (page faults on every touch) or
 * reused heap memory depends on the order of earlier frees. The same
 * spark-tc bring-up took 60 us in one build of this benchmark and
 * 540 us in another that changed no code on its path. Pinning the
 * threshold at its 64-bit ceiling and keeping freed memory makes every
 * build reuse, so a change shows only its own work.
 */
void
pinMalloc()
{
#if defined(__GLIBC__)
    if (!mallopt(M_MMAP_THRESHOLD, 32 << 20) ||
        !mallopt(M_TRIM_THRESHOLD, 1 << 30))
        std::fprintf(stderr, "skybench: mallopt refused\n");
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);
    pinMalloc();
    std::fprintf(stderr, "skybench: %s, seed %llu, %g s, trace %d, %s build\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0, SKYBENCH_BUILD_TYPE);
    // Measured runs keep span tracing off; a traced run switches it on
    // for its second half only.
    skyway::obs::SpanTracer::setTracingEnabled(false);
    Result r;
    if (args.workload == "spark-tc")
        r = runSparkTc(args);
    else if (args.workload == "small-transfer")
        r = runSmallTransfer(args);
    else if (args.workload == "tcp-bulk")
        r = runTcpBulk(args);
    else
        usage(("unknown workload " + args.workload).c_str());
    printResult(r);
    return 0;
}
