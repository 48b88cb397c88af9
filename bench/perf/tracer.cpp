#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_map>

#include "common/check.hpp"
#include "perf.hpp"

namespace psi::perf {

namespace {

/// Open scopes of the calling thread (innermost last): the parent of the
/// next scope() on this thread.
thread_local std::vector<std::int64_t> t_open;

/// Small stable Chrome-trace lane per OS thread, in order of first use.
int thread_lane() {
  static std::mutex mutex;
  static std::unordered_map<std::thread::id, int> lanes;
  std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = lanes.try_emplace(
      std::this_thread::get_id(), static_cast<int>(lanes.size()));
  return it->second;
}

}  // namespace

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

std::int64_t Tracer::open(const char* name, std::int64_t request) {
  const int lane = thread_lane();
  const double start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t id = static_cast<std::int64_t>(spans_.size());
  const std::int64_t parent = t_open.empty() ? -1 : t_open.back();
  if (request < 0 && parent >= 0)
    request = spans_[static_cast<std::size_t>(parent)].request;
  spans_.push_back(Span{name, start, start, parent, request, lane, false});
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now();
  std::lock_guard<std::mutex> lock(mutex_);
  t_open.erase(std::remove(t_open.begin(), t_open.end(), id), t_open.end());
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::int64_t Tracer::add(std::string name, double start, double end,
                         std::int64_t parent, std::int64_t request, int thread,
                         bool synthetic) {
  if (!attached_) return -1;
  const int own_lane = thread_lane();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t id = static_cast<std::int64_t>(spans_.size());
  if (thread < 0)
    thread = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].thread
                         : own_lane;
  spans_.push_back(Span{std::move(name), start, std::max(start, end), parent,
                        request, thread, synthetic});
  return id;
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

  std::vector<double> self(spans_.size(), 0.0);
  std::vector<std::pair<double, double>> covered;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const double lo = std::max(s.start, spans_[c].start);
      const double hi = std::min(s.end, spans_[c].end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0, reach = s.start;
    for (const auto& [lo, hi] : covered) {
      if (hi <= reach) continue;
      busy += hi - std::max(lo, reach);
      reach = hi;
    }
    self[i] = std::max(0.0, (s.end - s.start) - busy);
  }
  return self;
}

std::vector<Tracer::Layer> Tracer::layers() const {
  const std::vector<double> self = self_times();
  std::vector<Layer> out;
  std::map<std::string, std::size_t> index;
  std::vector<std::vector<double>> self_samples;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto [it, inserted] = index.try_emplace(s.name, out.size());
    if (inserted) {
      out.push_back(Layer{s.name});
      self_samples.emplace_back();
    }
    Layer& layer = out[it->second];
    layer.count += 1;
    layer.total_s += s.end - s.start;
    layer.self_s += self[i];
    self_samples[it->second].push_back(self[i]);
  }
  for (std::size_t l = 0; l < out.size(); ++l)
    out[l].self_p50_s = median(std::move(self_samples[l]));
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  PSI_CHECK_MSG(f != nullptr, "cannot write " << path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"request\":%lld,\"synthetic\":%s}}",
                 i == 0 ? "" : ",", json_string(s.name).c_str(), s.thread,
                 s.start * 1e6, (s.end - s.start) * 1e6, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 s.synthetic ? "true" : "false");
  }
  std::fputs("\n]}\n", f);
  PSI_CHECK_MSG(std::fclose(f) == 0, "cannot write " << path);
}

}  // namespace psi::perf
