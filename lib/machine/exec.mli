(** Functional + timed execution of JIT code objects.

    The executor interprets a {!Code.t} over the host's tagged-word
    memory while driving a {!Cpu.t} timing model instruction by
    instruction.  Machine addresses are in half-word units so that a
    tagged pointer (2*index+1) can be used directly as a base register
    with the tag absorbed into the displacement, exactly like V8's
    compressed-pointer addressing; the executor converts to word indexes
    internally.

    Calls leave the machine world through the host callbacks: builtins
    and JS-to-JS calls are dispatched by the embedding engine, which may
    recursively run compiled code or fall back to its interpreter.  All
    registers are caller-saved; arguments arrive in r0..r5 and the
    result returns in r0.

    Two interchangeable engines implement these semantics:

    - the {b pre-decoded threaded-code engine} ({!Decode}, the
      default): each code object is compiled once into a flat array of
      micro-op closures driven by an accumulator-style dispatch loop;
    - the {b direct interpreter} ({!run_direct}): matches on
      [Insn.kind] per retired instruction; kept as the executable
      specification.

    The two are bit-identical — same outcomes, memory, cycle counts and
    counters — which the exec-determinism test suite enforces by digest
    comparison.  Select with the [VSPEC_EXEC] environment variable
    ([decoded], the default, or [direct]) or programmatically with
    {!set_engine}. *)

type host = Decode.host = {
  memory : Memory.t;
  call_builtin : int -> int array -> int;
      (** [call_builtin id args] with [args] = r0..r(argc-1); must
          charge its own cost on the shared CPU; returns the tagged
          result.  The [args] array is only valid for the duration of
          the call — both engines reuse a scratch buffer across
          calls. *)
  call_js : int -> int array -> int;
      (** [call_js function_id args]; same contract. *)
}

type snapshot = Decode.snapshot = {
  s_regs : int array;
  s_fregs : float array;
  s_slots : int array;
  s_fslots : float array;
}

type outcome = Decode.outcome =
  | Done of int                    (** tagged return value (r0) *)
  | Deopt of {
      deopt_id : int;
      reason : Insn.deopt_reason;
      snapshot : snapshot;
      via_smi_ext : bool;          (** bailout through REG_BA/REG_RE *)
    }

exception Machine_fault of string
(** Unaligned access, out-of-range address, or executing past the end of
    the code object — always a JIT bug, never a user-program error.
    Alias of {!Decode.Machine_fault}: both engines raise the same
    exception with the same messages. *)

val run : Cpu.t -> host:host -> code:Code.t -> args:int array -> outcome
(** Execute with the currently selected engine (see {!current_engine}). *)

val run_direct : Cpu.t -> host:host -> code:Code.t -> args:int array -> outcome
(** The direct interpreter, always available regardless of the selected
    engine — reference semantics for differential testing and
    benchmarking. *)

(** {1 Engine selection} *)

type engine_kind = Direct | Decoded

val current_engine : unit -> engine_kind
(** The engine {!run} dispatches to: the {!set_engine} override if any,
    else [VSPEC_EXEC] ([decoded] when unset). *)

val set_engine : engine_kind option -> unit
(** Override (or, with [None], un-override) the environment selection —
    used by tests and benchmarks to compare engines in-process. *)

val warm : Code.t -> unit
(** Pre-decode a code object if the decoded engine is active (no-op
    otherwise); called by the engine at JIT-compile time so first
    execution does not pay the decode. *)

val frame_value :
  snapshot -> materialize_double:(float -> int) -> Code.frame_value -> int
(** Resolve a deopt-point frame value against a snapshot; unboxed
    doubles are re-boxed through [materialize_double]. *)
