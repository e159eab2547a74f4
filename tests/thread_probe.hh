/**
 * @file
 * Thread-count probe for the tests that check a stopped job leaves
 * no thread behind: the live count comes from /proc/self/task, and
 * a sampler thread records its peak while the test runs.
 */

#ifndef CHAMELEON_TESTS_THREAD_PROBE_HH
#define CHAMELEON_TESTS_THREAD_PROBE_HH

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>

namespace chameleon::test
{

/** Threads of this process right now. */
inline std::size_t
threadCount()
{
    DIR *dir = ::opendir("/proc/self/task");
    if (!dir)
        return 0;
    std::size_t n = 0;
    while (const dirent *e = ::readdir(dir))
        if (e->d_name[0] != '.')
            ++n;
    ::closedir(dir);
    return n;
}

/**
 * Samples threadCount() every 5 ms from construction to stop(); a
 * worker thread lives as long as its job, so none slips between two
 * samples. The sampler is itself one of the threads it counts, and
 * costs CPU: stop it before measuring the process's CPU time.
 */
class ThreadPeak
{
  public:
    ThreadPeak()
        : sampler([this] {
              while (running.load()) {
                  peakCount.store(
                      std::max(peakCount.load(), threadCount()));
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(5));
              }
          })
    {
    }

    ~ThreadPeak() { stop(); }

    /** Stop sampling and return the peak thread count. */
    std::size_t
    stop()
    {
        running.store(false);
        if (sampler.joinable())
            sampler.join();
        return peakCount.load();
    }

  private:
    std::atomic<bool> running{true};
    std::atomic<std::size_t> peakCount{0};
    std::thread sampler;
};

} // namespace chameleon::test

#endif // CHAMELEON_TESTS_THREAD_PROBE_HH
