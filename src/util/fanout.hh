/**
 * @file
 * The index fan-out behind the sweep runner's units, the run
 * service's stages and X-Mem's operating points, so "atomic next
 * index + std::thread pool + join" is written once.
 *
 * Callers keep share-nothing per-index state (results written by index
 * into pre-sized vectors) and merge in index order after fanOut()
 * returns, which is what makes a `--jobs N` run byte-identical to
 * `--jobs 1`.
 */

#ifndef LLL_UTIL_FANOUT_HH
#define LLL_UTIL_FANOUT_HH

#include <cstddef>
#include <functional>

namespace lll::util
{

/**
 * Call @p fn(i) once for every i in [0, @p n) on min(n, max(jobs, 1))
 * workers.  With @p jobs <= 1 the one worker is the calling thread,
 * running the indices in order, so a serial caller (one warm service
 * request) pays no thread spawn and join.  Otherwise every worker is a
 * fresh thread, joined before return, and the caller only waits; the
 * threads claim indices in ascending order from a shared counter, so
 * which thread runs an index is unspecified.  Callers that gather
 * thread-local state (spans) wrap each index in
 * SpanTracker::capture(), which is correct on either path.
 *
 * @return the number of worker threads used (0 when @p n is 0).
 */
size_t fanOut(size_t n, int jobs, const std::function<void(size_t)> &fn);

} // namespace lll::util

#endif // LLL_UTIL_FANOUT_HH
