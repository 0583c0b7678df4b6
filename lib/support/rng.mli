(** Deterministic pseudo-random number generation.

    Every stochastic element of the reproduction (GC trigger jitter,
    sampling phase, workload data) draws from an explicit [t] so that any
    experiment is reproducible from its seed.  The generator is
    SplitMix64, which has good statistical quality for simulation use and
    a trivially seedable state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each benchmark repetition its own stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bits53 : t -> int
(** The next draw's top 53 bits, uniform in [\[0, 2^53)].  [float t b]
    is exactly [b *. (float_of_int (bits53 t) /. 2^53)]; a caller in
    another module can compute that itself and so avoid receiving a
    boxed float. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal deviate. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
