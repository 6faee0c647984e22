#include "util/fanout.hh"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace lll::util
{

size_t
fanOut(size_t n, int jobs, const std::function<void(size_t)> &fn)
{
    if (jobs <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return std::min<size_t>(n, 1);
    }
    const size_t workers = std::min<size_t>(n, static_cast<size_t>(jobs));
    std::atomic<size_t> next{0};
    auto loop = [&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t j = 0; j < workers; ++j)
        pool.emplace_back(loop);
    for (std::thread &t : pool)
        t.join();
    return workers;
}

} // namespace lll::util
