#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "core/stencil.hpp"

namespace perfbench {

namespace core = advect::core;
namespace trace = advect::trace;

double now_s() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void SpanLog::add(const std::string& layer, const std::string& op, double t0,
                  double t1) {
    if (!enabled_) return;
    trace::Span s;
    s.name = layer + ":" + op;
    s.category = "bench";
    s.lane = trace::Lane::Host;
    s.t0 = t0;
    s.t1 = t1;
    spans_.push_back(std::move(s));
}

void SpanLog::merge_launch(std::vector<trace::Span> spans, double call_t0) {
    if (!enabled_) return;
    if (spans_.size() + spans.size() > kMaxSpans) {
        ++dropped_;
        return;
    }
    for (auto& s : spans) {
        s.t0 += call_t0;
        s.t1 += call_t0;
        spans_.push_back(std::move(s));
    }
}

namespace {

/// Measure of the union of [t0, t1] intervals clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double cur_lo = lo;
    double cur_hi = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a) continue;
        if (a > cur_hi) {
            total += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    return total + (cur_hi - cur_lo);
}

std::string layer_of(const trace::Span& s) {
    const std::string cat = s.category != nullptr ? s.category : "";
    if (cat == "bench") return "bench:" + s.name.substr(0, s.name.find(':'));
    return "lib:" + cat;
}

}  // namespace

std::vector<LayerRow> layer_table(const std::vector<trace::Span>& spans) {
    std::vector<std::size_t> order(spans.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return spans[a].t0 < spans[b].t0;
    });
    std::map<std::string, LayerRow> rows;
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
        const trace::Span& p = spans[order[oi]];
        const bool bench = std::strcmp(p.category, "bench") == 0;
        std::vector<std::pair<double, double>> kids;
        // Children start inside the parent: scan forward in start order.
        for (std::size_t oj = oi + 1; oj < order.size(); ++oj) {
            const trace::Span& c = spans[order[oj]];
            if (c.t0 > p.t1) break;
            if (c.t1 > p.t1) continue;
            if (!bench && (c.rank != p.rank || c.thread != p.thread ||
                           c.stream != p.stream))
                continue;
            kids.emplace_back(c.t0, c.t1);
        }
        // Spans that share the parent's start are scanned too when they
        // sort before it; include them unless they are the parent itself.
        for (std::size_t oj = oi; oj-- > 0;) {
            const trace::Span& c = spans[order[oj]];
            if (c.t0 < p.t0) break;
            if (c.t1 >= p.t1) continue;
            if (!bench && (c.rank != p.rank || c.thread != p.thread ||
                           c.stream != p.stream))
                continue;
            kids.emplace_back(c.t0, c.t1);
        }
        LayerRow& row = rows[layer_of(p)];
        row.layer = layer_of(p);
        ++row.spans;
        const double dur = p.t1 - p.t0;
        row.total_s += dur;
        row.self_s += dur - covered(std::move(kids), p.t0, p.t1);
    }
    std::vector<LayerRow> out;
    for (auto& [name, row] : rows) out.push_back(row);
    return out;
}

bool bitwise_equal(const core::Field3& a, const core::Field3& b) {
    const auto n = a.extents();
    const auto m = b.extents();
    if (n.nx != m.nx || n.ny != m.ny || n.nz != m.nz) return false;
    const std::size_t row_bytes = sizeof(double) * static_cast<std::size_t>(n.nx);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            if (std::memcmp(a.ptr(0, j, k), b.ptr(0, j, k), row_bytes) != 0)
                return false;
    return true;
}

int stencil_terms(const core::AdvectionProblem& p) {
    if (!p.constant_coefficients()) return 27;
    const core::Field3 shape(p.domain.extents());
    return core::StencilPlan::make(p.coeffs(), shape).terms;
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::print_table(const char* title) const {
    std::printf("# %s\n", title);
    std::printf("# %-36s %16s  %-8s %8s\n", "metric", "value", "unit", "n");
    for (const auto& m : metrics_)
        std::printf("# %-36s %16.6g  %-8s %8zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
}

namespace {

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

std::string Report::result_json(bool correct, std::size_t attempted,
                                std::size_t failed) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        if (i > 0) os << ", ";
        os << '"' << m.name << "\": {\"value\": " << json_number(m.value)
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

double peak_rss_mb() {
    rusage self{};
    rusage kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

std::string host_fingerprint(std::uint64_t seed) {
    std::ostringstream os;
    os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
       << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
       << ", \"compiler\": \"" << __VERSION__ << "\""
       << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
       << ", \"row_kernel_vectorized\": "
       << (core::detail::row_kernel_is_vectorized() ? "true" : "false")
       << ", \"seed\": " << seed << "}";
    return os.str();
}

std::uint64_t Rng::next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double Rng::uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

}  // namespace perfbench
