#pragma once
/// \file common.hpp
/// Shared pieces of the perfbench program: the one wall clock every timing
/// uses, order statistics, the benchmark's own trace spans, the bitwise
/// output check, honest flop counts, and the metric report whose last line
/// is the machine-readable result.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/field.hpp"
#include "core/problem.hpp"
#include "trace/span.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (the same clock the trace recorder uses).
[[nodiscard]] double now_s();

/// Wall seconds of `fn()`. The caller's `fn` must return only after the
/// work it starts has completed — streams synchronized, rank threads
/// joined, forked workers reaped — so work done on other threads or in
/// other processes is inside the interval. No CPU-time clock is used
/// anywhere in the benchmark: it would miss exactly that work.
template <class Fn>
double wall_seconds(Fn&& fn) {
    const double t0 = now_s();
    fn();
    return now_s() - t0;
}

/// Quantile `q` in [0, 1] of `v` by linear interpolation between order
/// statistics; 0 for an empty vector.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
    return quantile(v, 0.5);
}

/// The benchmark's own spans, kept in memory in the trace recorder's Span
/// type (category "bench") on a timeline that starts at construction, and
/// merged with the spans impl::LaunchOptions::trace returns. Recording is a
/// no-op unless enabled, so untraced runs pay nothing.
class SpanLog {
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(now_s()) {}

    [[nodiscard]] bool enabled() const { return enabled_; }
    /// Seconds on this log's timeline.
    [[nodiscard]] double now() const { return now_s() - epoch_; }
    /// Record [t0, t1] (timeline seconds) as "<layer>:<op>".
    void add(const std::string& layer, const std::string& op, double t0,
             double t1);
    /// Append spans a traced launch returned. Their times are relative to
    /// the launcher's recorder epoch, which it pins on entry, so they are
    /// placed relative to `call_t0`, the timeline time of the call. Bounded
    /// like the recorder itself: a launch that would take the log past
    /// kMaxSpans is dropped whole and counted.
    void merge_launch(std::vector<advect::trace::Span> spans, double call_t0);
    static constexpr std::size_t kMaxSpans = 250000;
    [[nodiscard]] std::size_t dropped_launches() const { return dropped_; }

    [[nodiscard]] const std::vector<advect::trace::Span>& spans() const {
        return spans_;
    }

  private:
    bool enabled_;
    double epoch_;
    std::vector<advect::trace::Span> spans_;
    std::size_t dropped_ = 0;
};

/// Scoped bench span: times the enclosed layer call when the log is on.
class LayerSpan {
  public:
    LayerSpan(SpanLog& log, const char* layer, std::string op)
        : log_(log), layer_(layer), op_(std::move(op)), t0_(log.now()) {}
    ~LayerSpan() {
        if (log_.enabled()) log_.add(layer_, op_, t0_, log_.now());
    }
    LayerSpan(const LayerSpan&) = delete;
    LayerSpan& operator=(const LayerSpan&) = delete;

  private:
    SpanLog& log_;
    const char* layer_;
    std::string op_;
    double t0_;
};

/// Per-layer self time over merged spans: a span's self time is its
/// duration minus the part of it covered by its children. A bench span's
/// children are every span inside its interval; a library span's children
/// are the spans inside it on the same rank, team thread and stream.
struct LayerRow {
    std::string layer;
    std::size_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};
[[nodiscard]] std::vector<LayerRow> layer_table(
    const std::vector<advect::trace::Span>& spans);

/// Interior of `a` and `b` identical bit for bit (memcmp per x-row; unlike
/// Field3::interior_equals this separates +0.0 from -0.0 and NaN payloads).
[[nodiscard]] bool bitwise_equal(const advect::core::Field3& a,
                                 const advect::core::Field3& b);

/// Surviving stencil terms of `p`'s own update: StencilPlan::make's count
/// for constant coefficients, 27 for the variable-coefficient path (which
/// always sums all 27 per-cell terms).
[[nodiscard]] int stencil_terms(const advect::core::AdvectionProblem& p);
/// Flops per point per step that actually run: `terms` products and
/// `terms` - 1 additions (the paper's 53 at 27 terms).
[[nodiscard]] inline double flops_per_point(int terms) {
    return 2.0 * terms - 1.0;
}

/// One reported metric: name, value, unit and how many samples it
/// summarizes (1 for a count or a single measurement).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
};

class Report {
  public:
    void add(std::string name, double value, std::string unit,
             std::size_t samples = 1);
    /// Human-readable table, one metric per line, prefixed "# ".
    void print_table(const char* title) const;
    /// The final result line: {"correct", "attempted", "failed", "metrics"}.
    [[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                          std::size_t failed) const;

  private:
    std::vector<Metric> metrics_;
};

/// Peak resident memory of this process plus its largest reaped child
/// (RUSAGE_SELF + RUSAGE_CHILDREN), in MiB.
[[nodiscard]] double peak_rss_mb();

/// One-line JSON description of the host and build: nproc, L2/L3 sizes,
/// compiler, whether the row kernel dispatches to its vector clone, build
/// type, and the seed.
[[nodiscard]] std::string host_fingerprint(std::uint64_t seed);

/// Small deterministic generator (splitmix64) so inputs depend only on the
/// seed, never on the standard library's distribution implementations.
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    /// Uniform integer in [0, n).
    std::size_t below(std::size_t n);
    /// Fisher-Yates shuffle.
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t s_;
};

}  // namespace perfbench
