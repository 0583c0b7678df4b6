(** The benchmark's three workloads: which cells each runs, with which
    engine configurations and knobs, and the interpreter-only reference
    checksums their outputs are checked against. *)

type kind = Jit_steady | Interp_reference | Figure_slice

val names : (string * kind) list
val name : kind -> string

type cell = {
  bench : Workloads.Suite.benchmark;
  variant : Experiments.Common.variant;
  config : Engine.config;
  iterations : int;
}

val cell_label : cell -> string
(** ["PROGRAM arch variant"] *)

val cells : kind -> seed:int -> cell list
(** The cells of a directly driven workload, engine seeds derived from
    the workload seed.  Empty for [Figure_slice], whose cells are the
    figure drivers' own. *)

val knobs : kind -> (string * string) list
(** The [VSPEC_*] settings the workload runs under; the benchmark
    clears every other [VSPEC_*] variable. *)

val programs : kind -> Workloads.Suite.benchmark list
val iterations : kind -> int

val slice_figures : string list
val slice_programs : string list
val slice_jobs : int

val slice_cells :
  unit -> (Arch.t * int * Experiments.Common.variant option * Workloads.Suite.benchmark) list
(** The simulation cells fig1 and fig7 plan on the reference slice, as
    [(arch, seed, variant, program)]; [None] stands for the calibrated
    check-removal variant, whose groups are known only after
    calibration.  Must match the figure drivers' plans: the benchmark
    re-reads each of these cells after a figure pass and fails the run
    if any of them was not already simulated by the pass. *)

val reference : iterations:int -> Workloads.Suite.benchmark -> Experiments.Harness.result
(** Interpreter-only run (ARM64, engine seed 1) at the cell's own
    iteration count: the independent reference a cell's checksum must
    equal.  The count matters: AES2's state carries over between
    iterations, so its checksum depends on it. *)

val checkable : Experiments.Common.variant -> bool
(** Semantics-preserving variants, whose checksum must equal the
    reference.  Branch-only removal and trusted element kinds may
    legitimately diverge. *)
