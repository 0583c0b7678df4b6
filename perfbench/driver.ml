open Experiments

type probes = {
  frontend_s : float;
  create_major_words : float;
  decode_s : float;
  decode_uops : int;
}

let major_words () =
  let _, _, major = Gc.counters () in
  major

(* Wrap the engine's hook fields.  A tier-up hook call that neither
   produced code nor gave up on the function did no compiler work, so
   its span is dropped and its few nanoseconds stay with the caller. *)
let install_hooks spans (rt : Runtime.t) =
  (match rt.Runtime.on_invoke with
  | None -> ()
  | Some hook ->
    rt.Runtime.on_invoke <-
      Some
        (fun r (f : Runtime.func_rt) ->
          let code0 = f.Runtime.code_ref and forbid0 = f.Runtime.forbid_opt in
          let i = Spans.enter spans "turbofan" in
          match hook r f with
          | () ->
            if f.Runtime.code_ref = code0 && f.Runtime.forbid_opt = forbid0
            then Spans.drop spans i
            else Spans.leave spans i
          | exception e ->
            Spans.leave spans i;
            raise e));
  match rt.Runtime.call_optimized with
  | None -> ()
  | Some call ->
    rt.Runtime.call_optimized <-
      Some
        (fun fid args ->
          let i = Spans.enter spans "machine" in
          match call fid args with
          | v ->
            Spans.leave spans i;
            v
          | exception e ->
            Spans.leave spans i;
            raise e)

(* Sample attribution, as [Harness.run] does it after the last
   iteration: one window map per code object. *)
let attribute eng =
  let window_acc = Array.make 6 0 and truth_acc = Array.make 6 0 in
  let jit_samples = ref 0 and total_samples = ref 0 in
  (match Engine.sampler eng with
  | None -> ()
  | Some s ->
    total_samples := Perf.total_samples s;
    List.iter
      (fun (code_id, _) ->
        if code_id >= 0 then
          match Engine.code_of_id eng code_id with
          | None -> ()
          | Some code ->
            let samples =
              Perf.samples_for s ~code_id ~size:(Array.length code.Code.insns)
            in
            jit_samples :=
              !jit_samples
              + Harness.attribute_code_with
                  ~window_map:(Harness.check_window_map code) ~code ~samples
                  ~window_acc ~truth_acc)
      (Perf.samples_by_code s));
  (!jit_samples, !total_samples, window_acc, truth_acc)

let copy_counters c =
  let fresh = Perf.create_counters () in
  Perf.add_counters fresh c;
  fresh

let run ~spans ~iterations ~(config : Engine.config)
    (bench : Workloads.Suite.benchmark) =
  let source = bench.Workloads.Suite.source in
  let f0 = Unix.gettimeofday () in
  ignore (Bcompiler.compile source);
  let frontend_s = Unix.gettimeofday () -. f0 in
  let cell = Spans.enter spans "cell" in
  let maj0 = major_words () in
  let eng = Spans.with_span spans "create" (fun () -> Engine.create config source) in
  let create_major_words = major_words () -. maj0 in
  install_hooks spans (Engine.runtime eng);
  let cpu = Engine.cpu eng in
  let counters = cpu.Cpu.counters in
  let h = (Engine.runtime eng).Runtime.heap in
  let iter_cycles = Array.make iterations 0.0 in
  let iter_deopts = Array.make iterations 0 in
  let checksum = ref Float.nan in
  let error = ref None in
  let budget = Harness.max_cycles_per_call () in
  (* The same containment as [Harness.run]: faults escape, simulation
     errors end the run and are reported in [error]. *)
  (try
     Cpu.arm_watchdog cpu ~cycles:budget;
     let _ = Spans.with_span spans "main" (fun () -> Engine.run_main eng) in
     let i = ref 0 in
     while !i < iterations && !error = None do
       let c0 = Engine.cycles eng in
       let d0 = counters.Perf.deopt_events in
       Cpu.arm_watchdog cpu ~cycles:budget;
       (try
          let v =
            Spans.with_span spans "call" (fun () ->
                Engine.call_global eng "bench" [||])
          in
          checksum := Heap.number_value h v
        with
       | Support.Fault.Fault _ as e -> raise e
       | Exec.Machine_fault m -> error := Some ("machine fault: " ^ m)
       | Builtins.Js_error m -> error := Some ("js error: " ^ m)
       | e -> error := Some ("runtime divergence: " ^ Printexc.to_string e));
       iter_cycles.(!i) <- Engine.cycles eng -. c0;
       iter_deopts.(!i) <- counters.Perf.deopt_events - d0;
       Spans.with_span spans "safepoint" (fun () -> Engine.iteration_safepoint eng);
       incr i
     done
   with
  | Support.Fault.Fault _ as e ->
    Spans.leave spans cell;
    raise e
  | Exec.Machine_fault m -> error := Some ("machine fault in setup: " ^ m)
  | Builtins.Js_error m -> error := Some ("js error in setup: " ^ m)
  | Heap.Out_of_memory -> error := Some "out of memory"
  | e -> error := Some ("setup divergence: " ^ Printexc.to_string e));
  let jit_samples, total_samples, window_acc, truth_acc =
    Spans.with_span spans "attribute" (fun () -> attribute eng)
  in
  let codes = Engine.all_codes eng in
  let static_checks, static_insns =
    List.fold_left
      (fun (c, n) code ->
        (c + Code.static_check_instructions code, n + Code.real_instructions code))
      (0, 0) codes
  in
  let result =
    {
      Harness.bench;
      arch = config.Engine.arch;
      iterations;
      checksum = !checksum;
      error = !error;
      iter_cycles;
      iter_deopts;
      counters = copy_counters counters;
      total_cycles = Engine.cycles eng;
      jit_samples;
      total_samples;
      window_check_samples = window_acc;
      truth_check_samples = truth_acc;
      static_checks;
      static_insns;
      compiles = Engine.compile_count eng;
      gc_runs = Heap.gc_count h;
    }
  in
  Spans.leave spans cell;
  let d0 = Unix.gettimeofday () in
  let decode_uops =
    List.fold_left
      (fun n code -> n + (Decode.stats (Decode.compile code)).Decode.st_uops)
      0 codes
  in
  let decode_s = Unix.gettimeofday () -. d0 in
  (result, { frontend_s; create_major_words; decode_s; decode_uops })
