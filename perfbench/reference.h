// A fixed reference kernel timed next to every measured pass, so that the
// end-to-end timings can be put on one host-speed scale.
//
// On a few cores of a shared host the speed of the same single-threaded
// code drifts by 30–50% over tens of seconds with the neighbours' load, and
// two sets of runs of the same code taken minutes apart differ by that
// much. The reference kernel is benchmark code that no change to src/ can
// touch; it slows down with the host, so a pass's time divided by the
// reference's time around it follows the program and not the host (the
// design ROADMAP.md gives for the kernel gate: gate on the ratio to an
// in-process reference, so machine speed cancels).
#pragma once

namespace lgbench {

/// The reference's time on the host the scale is anchored to. Normalised
/// timings read as host seconds on a host where one reference_seconds()
/// call takes this long.
inline constexpr double kReferenceSeconds = 0.25;

/// Runs the reference kernel once and returns its wall seconds. It mixes
/// the simulator's kinds of work: a binary-heap event queue, random reads
/// over a table larger than the private caches, and integer and
/// floating-point arithmetic.
double reference_seconds();

}  // namespace lgbench
