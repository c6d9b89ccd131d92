#include "trace/span.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace advect::trace {

namespace detail {

std::atomic<bool> g_enabled{false};
constinit thread_local int t_mute = 0;

namespace {

using Clock = std::chrono::steady_clock;

/// Spans one shard may hold before it starts dropping (~6 MB of strings and
/// PODs at the default span size; plenty for the repo's step counts).
constexpr std::size_t kShardCapacity = 1u << 16;

struct Shard {
    std::mutex mu;
    std::vector<Span> spans;
    std::size_t dropped = 0;
};

struct Registry {
    std::mutex mu;
    std::vector<std::shared_ptr<Shard>> shards;
    Clock::time_point epoch = Clock::now();
};

Registry& registry() {
    static Registry* r = new Registry;  // leaked: recorder outlives threads
    return *r;
}

thread_local std::shared_ptr<Shard> t_shard;
thread_local int t_rank = -1;

Shard& shard() {
    if (!t_shard) {
        t_shard = std::make_shared<Shard>();
        auto& reg = registry();
        std::lock_guard lock(reg.mu);
        reg.shards.push_back(t_shard);
    }
    return *t_shard;
}

}  // namespace
}  // namespace detail

const char* lane_name(Lane lane) {
    switch (lane) {
        case Lane::Host: return "host";
        case Lane::Cpu: return "cpu";
        case Lane::Nic: return "nic";
        case Lane::Pcie: return "pcie";
        case Lane::Gpu: return "gpu";
    }
    return "host";
}

Lane lane_from_name(const std::string& name) {
    if (name == "cpu") return Lane::Cpu;
    if (name == "nic") return Lane::Nic;
    if (name == "pcie") return Lane::Pcie;
    if (name == "gpu") return Lane::Gpu;
    return Lane::Host;
}

void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
    auto& reg = detail::registry();
    std::lock_guard lock(reg.mu);
    for (auto& s : reg.shards) {
        std::lock_guard slock(s->mu);
        s->spans.clear();
        s->dropped = 0;
    }
    reg.epoch = detail::Clock::now();
}

double now() {
    // Registry construction pins the epoch; taking the registry reference
    // here keeps first-use ordering correct without locking.
    auto& reg = detail::registry();
    return std::chrono::duration<double>(detail::Clock::now() - reg.epoch)
        .count();
}

double epoch_seconds() {
    auto& reg = detail::registry();
    std::lock_guard lock(reg.mu);
    return std::chrono::duration<double>(reg.epoch.time_since_epoch())
        .count();
}

void set_current_rank(int rank) { detail::t_rank = rank; }

int current_rank() { return detail::t_rank; }

void record(Span span) {
    if (!enabled()) return;
    auto& s = detail::shard();
    std::lock_guard lock(s.mu);
    if (s.spans.size() >= detail::kShardCapacity) {
        ++s.dropped;
        return;
    }
    s.spans.push_back(std::move(span));
}

void record(std::string name, const char* category, Lane lane, double t0,
            double t1, int rank, int thread, int stream) {
    if (!enabled()) return;
    Span s;
    s.name = std::move(name);
    s.category = category;
    s.lane = lane;
    s.t0 = t0;
    s.t1 = t1;
    s.rank = rank;
    s.thread = thread;
    s.stream = stream;
    record(std::move(s));
}

std::vector<Span> snapshot() {
    std::vector<Span> out;
    auto& reg = detail::registry();
    std::lock_guard lock(reg.mu);
    for (auto& s : reg.shards) {
        std::lock_guard slock(s->mu);
        out.insert(out.end(), s->spans.begin(), s->spans.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Span& a, const Span& b) { return a.t0 < b.t0; });
    return out;
}

std::size_t dropped() {
    std::size_t n = 0;
    auto& reg = detail::registry();
    std::lock_guard lock(reg.mu);
    for (auto& s : reg.shards) {
        std::lock_guard slock(s->mu);
        n += s->dropped;
    }
    return n;
}

ScopedSpan::ScopedSpan(const char* name, const char* category, Lane lane,
                       int thread, int stream)
    : name_(name),
      category_(category),
      lane_(lane),
      rank_(detail::t_rank),
      thread_(thread),
      stream_(stream) {
    if (enabled()) t0_ = now();
}

ScopedSpan::~ScopedSpan() {
    if (t0_ < 0.0 || !enabled()) return;
    record(name_, category_, lane_, t0_, now(), rank_, thread_, stream_);
}

}  // namespace advect::trace
