(** Host-speed calibration.

    The benchmark runs on shared hosts whose speed drifts by tens of
    percent in phases that outlast a run.  A fixed kernel, independent
    of the program under test, is timed between units of work; a unit's
    time is scaled by how much slower or faster the kernel ran around
    it than its nominal time.  A change to the program moves the scaled
    time as much as the raw one; a change of host speed moves it much
    less. *)

val nominal_s : float
(** The kernel's time on the reference host, in seconds. *)

val sample : unit -> float
(** Run the kernel once; its wall time in seconds. *)

val scale :
  before:float -> after:float -> wall:float -> user:float -> sys:float ->
  float * float
(** [scale ~before ~after ~wall ~user ~sys]: the wall and CPU seconds of
    a unit of work on the reference host, from its raw wall, user and
    system seconds and the kernel samples taken just before and just
    after it.  Only user time is scaled: the kernel runs in user mode,
    and system time (page faults, mostly) follows the host's phases
    much less. *)
