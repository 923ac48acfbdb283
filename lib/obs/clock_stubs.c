/* Clocks for Obs.Tracer timestamps.
 *
 * Unix.gettimeofday ticks in whole microseconds, which is the length of
 * a short span (a small tissue step takes 2-4 us): per-span rounding
 * errors then add up to several percent of a span total instead of
 * averaging out.  CLOCK_MONOTONIC also never steps backwards.
 *
 * Events are stamped in raw ticks.  On x86-64 a tick is one count of
 * the time-stamp counter: a read costs a few nanoseconds, against some
 * 40 ns for a vDSO clock_gettime, and a short span pays two reads.
 * Tracer converts ticks to microseconds at snapshot time by the ratio
 * of the two clocks' advance, which assumes an invariant counter that
 * all cores share (constant_tsc and nonstop_tsc, as on any host whose
 * kernel clocksource is tsc).  Elsewhere a tick is a CLOCK_MONOTONIC
 * nanosecond.
 *
 * RDTSC alone may execute before earlier instructions finish or after
 * later ones start.  The fences keep a span's body between its stamps:
 * a span's Begin reads the counter before any later instruction starts
 * (limpet_obs_ticks_begin), every other read waits for all earlier
 * instructions to finish (limpet_obs_ticks). */

#include <time.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

value limpet_obs_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

value limpet_obs_ticks(value unit)
{
#if defined(__x86_64__)
  (void)unit;
  _mm_lfence();
  return Val_long((intnat)__rdtsc());
#else
  return limpet_obs_monotonic_ns(unit);
#endif
}

value limpet_obs_ticks_begin(value unit)
{
#if defined(__x86_64__)
  intnat t;
  (void)unit;
  t = (intnat)__rdtsc();
  _mm_lfence();
  return Val_long(t);
#else
  return limpet_obs_monotonic_ns(unit);
#endif
}
