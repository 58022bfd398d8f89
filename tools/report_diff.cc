/**
 * @file
 * Baseline regression gate over JSON run artifacts.
 *
 * Usage:
 *   report_diff FRESH.json BASELINE.json [options]
 *
 * Options:
 *   --abs=X               absolute per-cell tolerance (default 0.1,
 *                         table units - percentage points for
 *                         misprediction tables)
 *   --rel=Y               relative per-cell tolerance against the
 *                         baseline magnitude (default 0.02)
 *   --min-throughput=B    fail when the fresh run simulated fewer
 *                         than B branches/sec (default: off)
 *   --throughput-ratio=R  fail when fresh throughput is below R x
 *                         the baseline's recorded throughput
 *                         (default: off; use only on comparable
 *                         hardware)
 *   --no-manifest         skip the slug/event-scale manifest check
 *   --allow-partial       accept a fresh artifact that records
 *                         failed cells (by default a partial run
 *                         fails the gate; see docs/ROBUSTNESS.md)
 *   --require-cached      fail unless the fresh artifact shows that
 *                         every trace came from the trace cache
 *                         (zero generator runs; the CI cache-smoke
 *                         job uses this, see docs/PERFORMANCE.md)
 *   --require-mmap        like --require-cached, but additionally
 *                         every cache hit must have been served
 *                         zero-copy from an mmap'ed .ibpm entry
 *                         (no legacy stream fallbacks)
 *   --require-served      fail unless the fresh artifact carries the
 *                         metrics.serve block, i.e. was produced
 *                         through a resident ibpd daemon rather than
 *                         a silent in-process fallback (the CI
 *                         daemon-smoke job uses this; see
 *                         docs/SERVICE.md)
 *   --require-result-cached
 *                         fail unless the fresh artifact shows that
 *                         every cell was loaded from the result
 *                         store (hits > 0 and equal to the recorded
 *                         cell count, zero misses, zero
 *                         invalidations; the CI warm-store job uses
 *                         this, see docs/PERFORMANCE.md)
 *   --min-job-speedup=R   fail unless the fresh artifact's server-
 *                         side job wall time (metrics.serve.
 *                         job_seconds) beats the BASELINE artifact's
 *                         by at least a factor R - the lane-scaling
 *                         gate: fresh from --lanes=N, baseline from
 *                         --lanes=1 (default: off; see
 *                         docs/SERVICE.md)
 *
 * Exits 0 when the fresh artifact is within tolerance, 1 on a
 * regression or unreadable artifact, 2 on usage errors. See
 * docs/REPORTING.md for the tolerance policy.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "report/artifact.hh"
#include "report/diff.hh"
#include "util/logging.hh"

using namespace ibp;

namespace {

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(
        stderr,
        "usage: %s FRESH.json BASELINE.json [--abs=X] [--rel=Y]\n"
        "          [--min-throughput=B] [--throughput-ratio=R]\n"
        "          [--no-manifest] [--allow-partial]\n"
        "          [--require-cached] [--require-mmap]\n"
        "          [--require-served] [--require-result-cached]\n"
        "          [--min-job-speedup=R]\n",
        argv0);
    std::exit(code);
}

double
parseNumber(const std::string_view arg, const std::string_view value)
{
    char *end = nullptr;
    const std::string text(value);
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || parsed < 0.0) {
        fatal("invalid value in '%.*s'",
              static_cast<int>(arg.size()), arg.data());
    }
    return parsed;
}

} // namespace

int
main(int argc, char **argv)
{
    DiffOptions options;
    bool require_cached = false;
    bool require_mmap = false;
    bool require_served = false;
    bool require_result_cached = false;
    double min_job_speedup = 0.0;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg(argv[i]);
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else if (arg.rfind("--abs=", 0) == 0) {
            options.absTolerance = parseNumber(arg, arg.substr(6));
        } else if (arg.rfind("--rel=", 0) == 0) {
            options.relTolerance = parseNumber(arg, arg.substr(6));
        } else if (arg.rfind("--min-throughput=", 0) == 0) {
            options.minThroughput = parseNumber(arg, arg.substr(17));
        } else if (arg.rfind("--throughput-ratio=", 0) == 0) {
            options.throughputRatio =
                parseNumber(arg, arg.substr(19));
        } else if (arg == "--no-manifest") {
            options.checkManifest = false;
        } else if (arg == "--allow-partial") {
            options.allowPartial = true;
        } else if (arg == "--require-cached") {
            require_cached = true;
        } else if (arg == "--require-mmap") {
            require_cached = true;
            require_mmap = true;
        } else if (arg == "--require-served") {
            require_served = true;
        } else if (arg == "--require-result-cached") {
            require_result_cached = true;
        } else if (arg.rfind("--min-job-speedup=", 0) == 0) {
            min_job_speedup = parseNumber(arg, arg.substr(18));
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            usage(argv[0], 2);
        } else {
            paths.emplace_back(arg);
        }
    }
    if (paths.size() != 2)
        usage(argv[0], 2);

    // Unreadable or malformed artifacts are reported, not aborted:
    // CI log output should say which file is broken and why.
    const auto fresh_result = RunArtifact::load(paths[0]);
    if (!fresh_result.ok()) {
        std::fprintf(stderr, "%s\n",
                     fresh_result.error().describe().c_str());
        return 1;
    }
    const auto baseline_result = RunArtifact::load(paths[1]);
    if (!baseline_result.ok()) {
        std::fprintf(stderr, "%s\n",
                     baseline_result.error().describe().c_str());
        return 1;
    }
    const RunArtifact &fresh = fresh_result.value();
    const RunArtifact &baseline = baseline_result.value();

    if (require_cached) {
        // The warm-run gate: the artifact must prove the run touched
        // the trace cache and never the generator.
        if (!fresh.metrics.hasTraceSource()) {
            std::fprintf(stderr,
                         "--require-cached: %s records no trace-source "
                         "telemetry (run with --trace-cache)\n",
                         paths[0].c_str());
            return 1;
        }
        if (fresh.metrics.tracesGenerated() != 0 ||
            fresh.metrics.traceCacheHits() == 0) {
            std::fprintf(stderr,
                         "--require-cached: %s generated %u trace(s) "
                         "and hit the cache %u time(s); expected a "
                         "fully warm cache\n",
                         paths[0].c_str(),
                         fresh.metrics.tracesGenerated(),
                         fresh.metrics.traceCacheHits());
            return 1;
        }
    }

    if (require_mmap) {
        // The zero-copy gate: every hit must have been served by the
        // mmap reader, proving the .ibpm path (not the stream
        // fallback) is what the warm run actually exercised.
        if (fresh.metrics.traceMmapHits() == 0 ||
            fresh.metrics.traceStreamHits() != 0) {
            std::fprintf(stderr,
                         "--require-mmap: %s served %u mmap and %u "
                         "stream cache hit(s) (read_path '%s'); "
                         "expected every hit via mmap\n",
                         paths[0].c_str(),
                         fresh.metrics.traceMmapHits(),
                         fresh.metrics.traceStreamHits(),
                         fresh.metrics.traceReadPath().c_str());
            return 1;
        }
    }

    if (require_served) {
        // The daemon gate: the client falls back in-process so
        // quietly that only the artifact itself can prove the run
        // went through ibpd.
        if (!fresh.metrics.hasServe()) {
            std::fprintf(stderr,
                         "--require-served: %s carries no serve "
                         "telemetry; the run fell back to in-process "
                         "execution (is ibpd up?)\n",
                         paths[0].c_str());
            return 1;
        }
    }

    if (require_result_cached) {
        // The warm-store gate: every cell must have come out of the
        // content-addressed result store, with nothing simulated and
        // nothing quarantined. An unkeyed column never probes the
        // store, so it counts as no miss; only the hit count falling
        // short of the cell count shows it.
        if (!fresh.metrics.hasResultStore()) {
            std::fprintf(stderr,
                         "--require-result-cached: %s records no "
                         "result-store telemetry (run with "
                         "--result-store)\n",
                         paths[0].c_str());
            return 1;
        }
        const auto &store = fresh.metrics.resultStore();
        const std::size_t cells = fresh.metrics.cellCount();
        if (store.hits == 0 || store.hits != cells ||
            store.misses != 0 || store.invalidated != 0) {
            std::fprintf(stderr,
                         "--require-result-cached: %s loaded %u of "
                         "%zu cell(s) from the result store with %u "
                         "miss(es) and %u invalidation(s); expected "
                         "a fully warm store\n",
                         paths[0].c_str(), store.hits, cells,
                         store.misses, store.invalidated);
            return 1;
        }
    }

    if (min_job_speedup > 0.0) {
        // The lane-scaling gate: both artifacts must carry server-
        // side job timing, and the fresh one (sharded across lanes)
        // must be at least min_job_speedup times faster than the
        // baseline (single lane).
        if (!fresh.metrics.hasServe() ||
            fresh.metrics.serve().jobSeconds <= 0.0) {
            std::fprintf(stderr,
                         "--min-job-speedup: %s records no serve "
                         "job_seconds (not served by ibpd?)\n",
                         paths[0].c_str());
            return 1;
        }
        if (!baseline.metrics.hasServe() ||
            baseline.metrics.serve().jobSeconds <= 0.0) {
            std::fprintf(stderr,
                         "--min-job-speedup: %s records no serve "
                         "job_seconds (not served by ibpd?)\n",
                         paths[1].c_str());
            return 1;
        }
        const double fresh_seconds =
            fresh.metrics.serve().jobSeconds;
        const double baseline_seconds =
            baseline.metrics.serve().jobSeconds;
        const double speedup = baseline_seconds / fresh_seconds;
        std::printf("job speedup: %.2fx (%.2fs -> %.2fs, floor "
                    "%.2fx)\n",
                    speedup, baseline_seconds, fresh_seconds,
                    min_job_speedup);
        if (speedup < min_job_speedup) {
            std::fprintf(stderr,
                         "--min-job-speedup: %.2fx is below the "
                         "%.2fx floor\n",
                         speedup, min_job_speedup);
            return 1;
        }
    }

    const DiffReport report =
        diffArtifacts(fresh, baseline, options);
    std::printf("%s vs %s\n", paths[0].c_str(), paths[1].c_str());
    std::printf("fresh: %s @ %s, %.0f branches/sec\n",
                fresh.manifest.slug.c_str(),
                fresh.manifest.gitSha.c_str(),
                fresh.metrics.branchesPerSecond());
    std::printf("baseline: %s @ %s, %.0f branches/sec\n",
                baseline.manifest.slug.c_str(),
                baseline.manifest.gitSha.c_str(),
                baseline.metrics.branchesPerSecond());
    if (fresh.metrics.hasSimd()) {
        // Context only, never gated: how the fresh run's engine
        // dispatched (docs/PERFORMANCE.md, metrics.simd).
        const SimdStats simd = fresh.metrics.simd();
        std::printf("fresh simd: %s%s%s%s, %llu columnar / %llu "
                    "transposed blocks, %llu lane + %llu generic "
                    "columns (%llu machines)\n",
                    simd.dispatchLevel.c_str(),
                    simd.fallbackReason.empty() ? "" : " (",
                    simd.fallbackReason.c_str(),
                    simd.fallbackReason.empty() ? "" : ")",
                    static_cast<unsigned long long>(
                        simd.columnarBlocks),
                    static_cast<unsigned long long>(
                        simd.transposedBlocks),
                    static_cast<unsigned long long>(simd.laneColumns),
                    static_cast<unsigned long long>(
                        simd.genericColumns),
                    static_cast<unsigned long long>(
                        simd.laneMachines));
    }
    if (fresh.metrics.hasServe() &&
        fresh.metrics.serve().shard.planned > 0) {
        // Context only, never gated: how the daemon sharded the
        // fresh run across its lanes (docs/SERVICE.md).
        const ShardServeStats &shard = fresh.metrics.serve().shard;
        std::printf("fresh shard: %u planned, %u requeued, %u "
                    "abandoned, %llu stolen, %llu overlap-coalesced, "
                    "fanout %.2fs + merge %.2fs, lane cells [",
                    shard.planned, shard.requeued, shard.abandoned,
                    static_cast<unsigned long long>(
                        shard.stolenCells),
                    static_cast<unsigned long long>(
                        shard.overlapCoalesced),
                    shard.fanoutSeconds, shard.mergeSeconds);
        for (std::size_t i = 0; i < shard.laneCells.size(); ++i) {
            std::printf("%s%llu", i == 0 ? "" : " ",
                        static_cast<unsigned long long>(
                            shard.laneCells[i]));
        }
        std::printf("]\n");
    }
    std::fputs(report.summary().c_str(), stdout);
    return report.passed() ? 0 : 1;
}
