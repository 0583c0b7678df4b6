(** Hardware event counters and the PC sampler.

    The counters mirror what the paper collects with [perf]: retired
    instructions, branches, mispredictions, cycles, frontend/backend
    stall cycles (Fig 10), plus ground-truth check-instruction counts the
    real hardware could not report.  The sampler implements the paper's
    first estimation method (Section III-A): sample the committed PC at a
    fixed cycle period and attribute samples to instructions. *)

type counters = {
  mutable instructions : int;
  mutable branches : int;
  mutable taken_branches : int;
  mutable mispredicts : int;
  mutable loads : int;
  mutable stores : int;
  mutable frontend_stall : float;
  mutable backend_stall : float;
  mutable check_instructions : int;  (** ground truth, committed *)
  mutable check_branches : int;      (** committed deopt branches *)
  check_per_group : int array;       (** committed check instructions,
                                         indexed by {!Insn.group_index} *)
  mutable deopt_events : int;
  mutable jit_instructions : int;    (** retired inside JIT code *)
  mutable runtime_instructions : int;  (** interpreter/builtin/GC estimate *)
}

val create_counters : unit -> counters
val reset_counters : counters -> unit
val add_counters : counters -> counters -> unit
(** [add_counters acc c] accumulates [c] into [acc]. *)

val note_check : counters -> group_index:int -> branch:bool -> unit
(** Account one committed check instruction to its group; [branch]
    marks it as a deopt branch.  Shared by both executors so their
    counter streams stay bit-identical. *)

(** {1 Special code ids for non-JIT execution} *)

val runtime_code_id : int
val builtin_code_id : int
val gc_code_id : int

type sampler

val create_sampler : period:float -> seed:int -> sampler

val sampler_next : sampler -> float
(** The next sampling point.  {!sampler_tick} does nothing while
    [now < sampler_next s] and {!sampler_bulk} nothing while
    [until <= sampler_next s], so a caller that caches this deadline in
    flat float storage can skip both calls — and the float boxing a
    call costs — until a sample is due.  The deadline only moves inside
    those two functions. *)

val sampler_tick : sampler -> now:float -> code_id:int -> pc:int -> unit
(** Record a sample for every sampling point at or before [now] not yet
    taken, attributing them to [(code_id, pc)]. *)

val sampler_bulk : sampler -> until:float -> code_id:int -> unit
(** Attribute every sampling point before [until] not yet taken to
    [(code_id, 0)] — used for interpreter/builtin/GC regions that are
    not simulated instruction by instruction. *)

val samples_for : sampler -> code_id:int -> size:int -> int array
(** Per-instruction sample counts for a code object (zeros if never
    sampled). *)

val total_samples : sampler -> int
val samples_by_code : sampler -> (int * int) list
(** [(code_id, samples)] pairs, all code ids seen. *)
