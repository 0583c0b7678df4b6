(** Metric names, units and directions, and the result line.

    These tables are the benchmark's contract with [BENCHMARK.json]
    (the test suite checks that the two list the same metrics). *)

type metric = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

val end_to_end : metric list
val per_layer : metric list

val result_line :
  correct:bool -> attempted:int -> failed:int -> metric list ->
  (string * float) list -> string
(** The final JSON object.  Every metric of the list must have a value;
    values are printed with all their digits. *)

val median : float list -> float
val digest_value : string -> float
(** The first 13 hex digits of a hex digest as a number, so a digest
    can travel as an exactly representable metric value. *)

val cell_digest : Experiments.Harness.result -> string
(** Digest of a cell's simulated outcome: per-iteration cycles and
    deopts, counters, checksum and total cycles.  Any change to the
    simulation's semantics or timing model changes it; a change that
    only speeds up the host must not. *)
