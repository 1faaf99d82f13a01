// In-memory span recorder for the traced benchmark run. Spans are taken
// around the benchmark's calls into each layer's public functions (setup,
// submit, stats, drain, the staged replay) and written once, at exit, as
// Chrome trace-event JSON (chrome://tracing, Perfetto). When off, every
// call is a branch and nothing is recorded.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Open a span; returns its id (1-based; 0 when tracing is off).
  /// `parent` is the id of the span that caused it (0 = none); `ref` the
  /// request or batch id it concerns (-1 = none).
  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::int64_t ref = -1) {
    if (!on_) return 0;
    const double now = now_us();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, now, now, parent, ref, thread_slot()});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id) {
    if (id == 0) return;
    const double now = now_us();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id - 1].end_us = now;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Write every span as a complete ("X") trace event. Returns false when
  /// the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"span\": %zu, \"parent\": %u, \"ref\": %lld}}",
                   i == 0 ? "" : ",\n", s.name, s.tid, s.start_us,
                   s.end_us - s.start_us, i + 1, s.parent,
                   static_cast<long long>(s.ref));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    double start_us, end_us;
    std::uint32_t parent;
    std::int64_t ref;
    std::uint32_t tid;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  /// Small per-thread index, stable for the thread's lifetime (mu_ held).
  std::uint32_t thread_slot() {
    const auto id = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i)
      if (threads_[i] == id) return static_cast<std::uint32_t>(i + 1);
    threads_.push_back(id);
    return static_cast<std::uint32_t>(threads_.size());
  }

  bool on_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// Scoped span: closes on destruction.
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint32_t parent = 0,
       std::int64_t ref = -1)
      : t_(t), id_(t.begin(name, parent, ref)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace e2e
