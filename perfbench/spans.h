/**
 * @file
 * Spans recorded by the benchmark around its calls into the program's
 * layers: name, start, end, parent span and job id.  A Tracer is used
 * from one thread; spans that end on another thread (a served job's
 * callback) are added afterwards with add().  Spans stay in memory
 * until write() puts them out as JSON Lines.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    std::string name;
    Clock::time_point start, end;
    int parent = -1;     ///< index of the enclosing span, -1 at top level
    int64_t job = -1;    ///< job id, -1 when the span serves no one job
    uint64_t insts = 0;  ///< simulated instructions retired inside, if any

    double us() const { return seconds(start, end) * 1e6; }
};

class Tracer
{
  public:
    /** Opens a span closed by its destructor (a no-op without a tracer). */
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, int64_t job = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Simulated instructions retired inside this span. */
        void setInsts(uint64_t n);

      private:
        Tracer *t_;
        int index_ = -1;
    };

    /** A finished span, as a child of the innermost open one. */
    void add(const char *name, Clock::time_point start,
             Clock::time_point end, int64_t job = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Span duration minus the part its children cover (us). */
    std::vector<double> selfUs() const;

    /** Write (or @p append) the spans to @p path as JSON Lines. */
    bool write(const std::string &path, const std::string &workload,
               bool append) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_; ///< stack of open span indices
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
