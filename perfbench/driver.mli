(** The traced cell driver.

    Runs one cell the way [Experiments.Harness.run] does, but through
    the public entry points one at a time ([Engine.create], [run_main],
    [call_global], [iteration_safepoint]) with a span around each, and
    with span wrappers installed on the two runtime hook fields the
    engine uses for tier-up ([Runtime.on_invoke]) and for calls into
    optimized code ([Runtime.call_optimized]).  It returns the same
    [Harness.result] as [Harness.run], field for field; the benchmark
    checks that on every traced cell.

    Span names: ["cell"] encloses ["create"], ["main"], ["call"],
    ["safepoint"] and ["attribute"]; ["turbofan"] (hook calls that
    compiled or bailed out) and ["machine"] (calls into optimized code,
    including the builtins and interpreter frames they reach) nest
    wherever the engine enters them. *)

type probes = {
  frontend_s : float;
      (** [Bcompiler.compile] of the cell's source, timed on its own
          just before the cell (the same call [Engine.create] makes) *)
  create_major_words : float;  (** major words allocated by [Engine.create] *)
  decode_s : float;
      (** [Decode.compile] over every code object the cell produced,
          timed after the cell *)
  decode_uops : int;
}

val run :
  spans:Spans.t -> iterations:int -> config:Engine.config ->
  Workloads.Suite.benchmark -> Experiments.Harness.result * probes
(** Spans are appended to [spans]; the ["cell"] span is the first one
    this call adds. *)
