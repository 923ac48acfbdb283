/* Monotonic nanosecond clock for Obs.Tracer timestamps.
 *
 * Unix.gettimeofday ticks in whole microseconds, which is the length of
 * a short span (a small tissue step takes 3-4 us): per-span rounding
 * errors then add up to several percent of a span total instead of
 * averaging out.  CLOCK_MONOTONIC also never steps backwards. */

#include <time.h>

#include <caml/mlvalues.h>

value limpet_obs_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
