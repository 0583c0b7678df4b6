(* perfbench: one end-to-end, layer-by-layer benchmark of the figure
   pipeline.

     bench.exe --workload W --seed N --seconds S --trace 0|1
       [--commit C] [--source-digest D] [--spans FILE]

   Sets up the workload several times (cells from the seed,
   interpreter-only reference checksums, pool start), then runs a
   warm-up pass and timed workload passes for about S seconds, checking
   every cell against its reference.  Times are scaled to a reference
   host by a calibration kernel timed between units of work (Calib).  Prints a provenance line, one row per cell
   (untraced runs), and as its last line one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics of the
   traced pass (--trace 1).  See README.md. *)

open Experiments
module W = Perfbench.Workload
module R = Perfbench.Report
module Spans = Perfbench.Spans
module Driver = Perfbench.Driver

let now = Unix.gettimeofday

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Arguments, knobs, provenance                                        *)
(* ------------------------------------------------------------------ *)

type args = {
  kind : W.kind;
  seed : int;
  seconds : float;
  traced : bool;
  commit : string;
  source_digest : string;
  spans_out : string option;
}

let parse_args () =
  let kv = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace kv (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | k :: _ -> die "unexpected argument %s" k
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = Hashtbl.find_opt kv k in
  let int_arg k =
    match Option.bind (get k) int_of_string_opt with
    | Some i -> i
    | None -> die "--%s N is required" k
  in
  let kind =
    match get "workload" with
    | Some w -> (
      match List.assoc_opt w W.names with
      | Some k -> k
      | None ->
        die "unknown workload %s (have: %s)" w
          (String.concat ", " (List.map fst W.names)))
    | None -> die "--workload is required"
  in
  let seconds = int_arg "seconds" in
  if seconds < 1 then die "--seconds must be at least 1";
  {
    kind;
    seed = int_arg "seed";
    seconds = float_of_int seconds;
    traced =
      (match get "trace" with
      | Some "1" -> true
      | Some "0" -> false
      | _ -> die "--trace 0|1 is required");
    commit = Option.value ~default:"unknown" (get "commit");
    source_digest = Option.value ~default:"unknown" (get "source-digest");
    spans_out = get "spans";
  }

(* Every knob the program reads; the provenance line lists each, set or
   not.  Any VSPEC_* knob the workload does not set itself must be
   absent, so a stray setting cannot change what is measured. *)
let known_knobs =
  [ "VSPEC_BATCH"; "VSPEC_BENCH"; "VSPEC_BENCH_OUT"; "VSPEC_CACHE_DIR";
    "VSPEC_EXEC"; "VSPEC_EXEC_BENCH_OUT"; "VSPEC_EXEC_REPS"; "VSPEC_FAULTS";
    "VSPEC_FUSE"; "VSPEC_ITERS"; "VSPEC_JOBS"; "VSPEC_MAX_CYCLES";
    "VSPEC_PERF_TOLERANCE"; "VSPEC_REGEX_STEPS"; "VSPEC_REPS"; "VSPEC_RETRIES";
    "VSPEC_RETRY_BACKOFF_MS"; "VSPEC_SKIP_MICRO"; "VSPEC_TRACE";
    "VSPEC_TRACE_BUF"; "VSPEC_VERIFY" ]

let env_knobs () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when String.length kv > 6 && String.sub kv 0 6 = "VSPEC_" ->
           Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | _ -> None)

let apply_knobs kind =
  let mine = W.knobs kind in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k mine) then
        die "%s is set; run through perfbench/run.py, which clears VSPEC_* knobs" k)
    (env_knobs ());
  List.iter (fun (k, v) -> Unix.putenv k v) mine

let provenance a =
  let set = env_knobs () in
  let knob k =
    Printf.sprintf "%S: %S" k
      (match List.assoc_opt k set with Some v -> v | None -> "unset (default)")
  in
  Printf.sprintf
    "{\"commit\": %S, \"source_digest\": %S, \"nproc\": %d, \"ocaml\": %S, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %.0f, \"trace\": %b, \
     \"exec_engine\": %S, \"knobs\": {%s}}"
    a.commit a.source_digest
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (W.name a.kind) a.seed a.seconds a.traced
    (match Exec.current_engine () with Exec.Decoded -> "decoded" | Exec.Direct -> "direct")
    (String.concat ", " (List.map knob known_knobs))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Scratch space inside the checkout, removed at exit. *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let make_workdir () =
  let root = ".perfbench-work" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  dir

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable broken : bool }

let tally = { attempted = 0; failed = 0; broken = false }

let fail what msg =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "perfbench: FAILED %s: %s\n%!" what msg

(* The benchmark itself went wrong (unstable digest, a traced run that
   differs from Harness.run, a plan it could not account for): the run
   is not correct even if every cell passed. *)
let broken msg =
  tally.broken <- true;
  Printf.eprintf "perfbench: BROKEN %s\n%!" msg

type setup = { cells : W.cell list; refs : (string * float) list }

let setup kind ~seed =
  let cells = W.cells kind ~seed in
  let iterations = W.iterations kind in
  let refs =
    List.filter_map
      (fun (b : Workloads.Suite.benchmark) ->
        let r = W.reference ~iterations b in
        match r.Harness.error with
        | None -> Some (b.Workloads.Suite.id, r.Harness.checksum)
        | Some e ->
          broken (Printf.sprintf "reference run of %s: %s" b.Workloads.Suite.id e);
          None)
      (W.programs kind)
  in
  if kind = W.Figure_slice then
    ignore (Support.Pool.run ~jobs:W.slice_jobs (List.init W.slice_jobs (fun _ () -> ())));
  { cells; refs }

let same_checksum a b = (Float.is_nan a && Float.is_nan b) || a = b

(* Count one attempted cell, and fail it if it went wrong. *)
let check setup ~label ~variant (r : (Harness.result, string) result) =
  tally.attempted <- tally.attempted + 1;
  let problem =
    match r with
    | Error e -> Some e
    | Ok { Harness.error = Some e; _ } -> Some e
    | Ok r when W.checkable variant -> (
      match List.assoc_opt r.Harness.bench.Workloads.Suite.id setup.refs with
      | None -> Some "no reference checksum"
      | Some expected when not (same_checksum expected r.Harness.checksum) ->
        Some (Printf.sprintf "checksum %.17g, reference %.17g" r.Harness.checksum expected)
      | Some _ -> None)
    | Ok _ -> None
  in
  Option.iter (fail label) problem

let run_harness (c : W.cell) =
  match Harness.run ~iterations:c.W.iterations ~config:c.W.config c.W.bench with
  | r -> Ok r
  | exception Support.Fault.Fault e -> Error (Support.Fault.describe e)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type row = { label : string; host_s : float option; insns : int; minor : float option }

type pass = {
  values : (string * float) list;  (** metric name -> value for this pass *)
  units : (float * float) list;
      (** wall and CPU seconds of each unit of work (a cell, or a figure
          when cells run inside the figure drivers), in pass order, in
          seconds of the reference host (see {!timed}) *)
  digest : string;
  rows : row list;
}

(* The calibration kernel's last sample, and the minor words all
   samples allocated, which the passes leave out of their counts. *)
let last_cal = ref 0.0
let cal_words = ref 0.0

let calibrate () =
  let w0 = Gc.minor_words () in
  last_cal := Perfbench.Calib.sample ();
  cal_words := !cal_words +. (Gc.minor_words () -. w0)

(* The wall and CPU seconds since [t0] and [c0], scaled to the reference
   host by the kernel sample [before] and one taken now. *)
let scaled ~before t0 (c0 : Unix.process_times) =
  let wall = now () -. t0 and c1 = Unix.times () in
  calibrate ();
  let before = if before > 0.0 then before else !last_cal in
  Perfbench.Calib.scale ~before ~after:!last_cal ~wall
    ~user:(c1.Unix.tms_utime -. c0.Unix.tms_utime)
    ~sys:(c1.Unix.tms_stime -. c0.Unix.tms_stime)

(* Run [f] as one unit of work: its result, and its scaled wall and CPU
   seconds. *)
let timed f =
  let before = !last_cal in
  let t0 = now () and c0 = Unix.times () in
  let r = f () in
  (r, scaled ~before t0 c0)

let insns_of (r : Harness.result) = r.Harness.counters.Perf.instructions
let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Untraced pass over directly driven cells: [Harness.run] per cell. *)
let direct_pass setup =
  let w0 = now () and c0 = cpu_time () and m0 = Gc.minor_words () -. !cal_words in
  let per_cell =
    List.map
      (fun (c : W.cell) ->
        let cm0 = Gc.minor_words () and cal0 = !cal_words in
        let r, (host_s, unit_cpu) = timed (fun () -> run_harness c) in
        let minor = Gc.minor_words () -. cm0 -. (!cal_words -. cal0) in
        let label = W.cell_label c in
        check setup ~label ~variant:c.W.variant r;
        let row =
          { label; host_s = Some host_s; minor = Some minor;
            insns = (match r with Ok r -> insns_of r | Error _ -> 0) }
        in
        (Result.to_option r, row, (host_s, unit_cpu)))
      setup.cells
  in
  let wall = now () -. w0 and cpu = cpu_time () -. c0 in
  let minor = Gc.minor_words () -. !cal_words -. m0 in
  let results = List.filter_map (fun (r, _, _) -> r) per_cell in
  let insns = sum (fun r -> float_of_int (insns_of r)) results in
  {
    units = List.map (fun (_, _, u) -> u) per_cell;
    values =
      [ ("wall_s", wall); ("cpu_s", cpu); ("sim.insns", insns);
        ("minor_words_per_insn", ratio minor insns) ];
    digest = Digest.to_hex (Digest.string (String.concat "" (List.map R.cell_digest results)));
    rows = List.map (fun (_, row, _) -> row) per_cell;
  }

(* Run the slice's figures through the real Registry -> Plan -> Pool ->
   Common -> Harness path, with a fresh private result cache, then
   re-read every planned cell from the memo tables to check it. *)
let figure_pass setup ~workdir ~index =
  Common.clear_memo ();
  Support.Fault.Ledger.clear ();
  let cache = Filename.concat workdir (Printf.sprintf "cache-%d" index) in
  Unix.putenv "VSPEC_CACHE_DIR" cache;
  let out = Filename.concat workdir (Printf.sprintf "figures-%d.txt" index) in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let gc0 = Gc.quick_stat () and cal0 = !cal_words in
  let w0 = now () and c0 = cpu_time () in
  (* One unit per figure and program, so that the kernel samples
     around each unit are at most a second apart. *)
  let fig_times =
    List.concat_map
      (fun id ->
        let e = Option.get (Registry.find id) in
        List.map
          (fun prog ->
            Unix.putenv "VSPEC_BENCH" prog;
            let (), t =
              timed (fun () ->
                  match e.Registry.run () with
                  | () -> ()
                  | exception ex ->
                    restore ();
                    raise ex)
            in
            (id, t))
          W.slice_programs)
      W.slice_figures
  in
  Unix.putenv "VSPEC_BENCH" (List.assoc "VSPEC_BENCH" (W.knobs W.Figure_slice));
  let wall = now () -. w0 and cpu = cpu_time () -. c0 in
  let gc1 = Gc.quick_stat () in
  restore ();
  let text = In_channel.with_open_bin out In_channel.input_all in
  let sims, hits = Common.cache_stats () in
  let errors = ref 0 in
  let describe r = Result.map_error Support.Fault.describe r in
  let per_cell =
    List.map
      (fun (arch, seed, v, b) ->
        let variant =
          match v with
          | Some v -> Ok v
          | None ->
            Result.map
              (fun (removable, _) -> Common.V_no_checks removable)
              (describe (Common.removable_groups_result ~arch b))
        in
        let r =
          Result.bind variant (fun variant ->
              describe (Common.run_result ~arch ~seed variant b))
        in
        let variant = Result.value variant ~default:(Common.V_no_checks []) in
        let label =
          Printf.sprintf "%s %s %s seed=%d" b.Workloads.Suite.id (Arch.name arch)
            (Common.variant_name variant) seed
        in
        if Result.is_error r then incr errors;
        check setup ~label ~variant r;
        let insns = match r with Ok r -> insns_of r | Error _ -> 0 in
        (Result.to_option r, { label; host_s = None; insns; minor = None }))
      (W.slice_cells ())
  in
  if fst (Common.cache_stats ()) <> sims then
    broken "the figures planned different cells from the benchmark's slice list";
  (* Failures the figures ledgered outside the planned cells. *)
  let ledgered = Support.Fault.Ledger.permanent_count () in
  for _ = 1 to ledgered - !errors do
    tally.attempted <- tally.attempted + 1;
    fail "figure" "ledgered failure outside the planned cells"
  done;
  rm_rf cache;
  Sys.remove out;
  let results = List.filter_map fst per_cell in
  let isum f = sum (fun r -> float_of_int (f r)) results in
  let insns = isum insns_of in
  let minor = gc1.Gc.minor_words -. gc0.Gc.minor_words -. (!cal_words -. cal0) in
  {
    values =
      [ ("wall_s", wall); ("cpu_s", cpu);
        ("minor_words_per_insn", ratio minor insns);
        ("common.sims", float_of_int sims); ("common.disk_hits", float_of_int hits);
        ("plan.cells", float_of_int (List.length per_cell));
        ("plan.parallel_eff", ratio cpu (wall *. float_of_int W.slice_jobs));
        ("gc.minor_collections",
          float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("interpreter.sim_insns", isum (fun r -> r.Harness.counters.Perf.runtime_instructions));
        ("heap.gc_runs", isum (fun r -> r.Harness.gc_runs));
        ("turbofan.compiles", isum (fun r -> r.Harness.compiles));
        ("engine.deopts", isum (fun r -> r.Harness.counters.Perf.deopt_events));
        ("machine.jit_insns", isum (fun r -> r.Harness.counters.Perf.jit_instructions));
        ("perf.samples", isum (fun r -> r.Harness.total_samples));
        ("sim.cycles", sum (fun r -> r.Harness.total_cycles) results);
        ("sim.insns", insns) ]
      @ List.map
          (fun id ->
            ( "figure." ^ id ^ "_s",
              sum (fun (id', (w, _)) -> if id' = id then w else 0.0) fig_times ))
          W.slice_figures;
    units = List.map snd fig_times;
    digest =
      Digest.to_hex
        (Digest.string (text ^ String.concat "" (List.map R.cell_digest results)));
    rows = List.map snd per_cell;
  }

(* Traced pass over directly driven cells: the span driver per cell,
   then [Harness.run] on the same cell, which the driver must reproduce
   exactly and which gives the untraced time of the same work. *)
let traced_pass setup spans =
  Spans.clear spans;
  let gc0 = Gc.quick_stat () in
  let w0 = now () and c0 = cpu_time () in
  let per_cell =
    List.filter_map
      (fun (c : W.cell) ->
        let label = W.cell_label c in
        let from = Spans.length spans in
        match Driver.run ~spans ~iterations:c.W.iterations ~config:c.W.config c.W.bench with
        | exception Support.Fault.Fault e ->
          check setup ~label ~variant:c.W.variant (Error (Support.Fault.describe e));
          None
        | traced, probes ->
          let cell = Spans.get spans from in
          let t0 = now () in
          let plain = run_harness c in
          let harness_s = now () -. t0 in
          (match plain with
          | Ok plain when compare traced plain = 0 -> ()
          | _ -> broken (label ^ ": the traced driver differs from Harness.run"));
          check setup ~label ~variant:c.W.variant (Ok traced);
          Some (traced, probes, cell.Spans.t1 -. cell.Spans.t0, harness_s))
      setup.cells
  in
  let wall = now () -. w0 and cpu = cpu_time () -. c0 in
  let gc1 = Gc.quick_stat () in
  let self = Spans.self_by_name spans in
  let self_s n = match List.assoc_opt n self with Some (s, _) -> s | None -> 0.0 in
  let self_w n = match List.assoc_opt n self with Some (_, w) -> w | None -> 0.0 in
  let results = List.map (fun (r, _, _, _) -> r) per_cell in
  let isum f = sum (fun r -> float_of_int (f r)) results in
  let psum f = sum f per_cell in
  let frontend = psum (fun (_, p, _, _) -> p.Driver.frontend_s) in
  let cell_s = psum (fun (_, _, s, _) -> s) in
  let harness_s = psum (fun (_, _, _, s) -> s) in
  let jit = isum (fun r -> r.Harness.counters.Perf.jit_instructions) in
  let layers = [ "create"; "main"; "call"; "safepoint"; "turbofan"; "machine"; "attribute" ] in
  {
    values =
      [ ("frontend.compile_s", frontend);
        ("runtime.create_s", Float.max 0.0 (self_s "create" -. frontend));
        ("runtime.create_major_words", psum (fun (_, p, _, _) -> p.Driver.create_major_words));
        ("interpreter.main_s", self_s "main");
        ("interpreter.self_s", self_s "call");
        ("interpreter.sim_insns", isum (fun r -> r.Harness.counters.Perf.runtime_instructions));
        ("heap.safepoint_s", self_s "safepoint");
        ("heap.gc_runs", isum (fun r -> r.Harness.gc_runs));
        ("turbofan.compile_s", self_s "turbofan");
        ("turbofan.compiles", isum (fun r -> r.Harness.compiles));
        ("engine.deopts", isum (fun r -> r.Harness.counters.Perf.deopt_events));
        ("decode.s", psum (fun (_, p, _, _) -> p.Driver.decode_s));
        ("decode.uops", psum (fun (_, p, _, _) -> float_of_int p.Driver.decode_uops));
        ("machine.self_s", self_s "machine");
        ("machine.jit_insns", jit);
        ("machine.ns_per_jit_insn", ratio (self_s "machine" *. 1e9) jit);
        ("machine.minor_words_per_jit_insn", ratio (self_w "machine") jit);
        ("perf.samples", isum (fun r -> r.Harness.total_samples));
        ("harness.attribute_s", self_s "attribute");
        ("plan.cells", float_of_int (List.length setup.cells));
        ("plan.parallel_eff", ratio cpu wall);
        ("gc.minor_collections",
          float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
        ("sim.cycles", sum (fun r -> r.Harness.total_cycles) results);
        ("sim.insns", isum insns_of);
        ("trace.overhead_pct", 100.0 *. (ratio cell_s harness_s -. 1.0));
        ("trace.coverage", ratio (sum self_s layers) cell_s) ];
    digest = Digest.to_hex (Digest.string (String.concat "" (List.map R.cell_digest results)));
    units = [];
    rows = [];
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let setups_per_run = 3

let () =
  let t_start = now () and t_start_cpu = Unix.times () in
  let a = parse_args () in
  apply_knobs a.kind;
  let workdir = make_workdir () in
  print_endline ("provenance " ^ provenance a);
  (* Set-up, several times; the first is timed from process start, so
     it has a kernel sample only after it. *)
  let n_setups = if a.traced then 1 else setups_per_run in
  let setups =
    List.init n_setups (fun i ->
        let before = !last_cal in
        let t0, c0 =
          if i = 0 then (t_start, t_start_cpu) else (now (), Unix.times ())
        in
        let s = setup a.kind ~seed:a.seed in
        (fst (scaled ~before t0 c0), s))
  in
  let setup = snd (List.hd setups) in
  let spans = Spans.create () in
  let run_pass index =
    match (a.kind, a.traced) with
    | W.Figure_slice, _ -> figure_pass setup ~workdir ~index
    | _, false -> direct_pass setup
    | _, true -> traced_pass setup spans
  in
  (* Read after the first pass: later passes repeat the same work, and
     a reading at exit would grow with the number of passes that fit. *)
  let peak_rss = ref 0.0 in
  (* A warm-up pass and at least two timed ones; after that, no pass
     starts that the last pass's length says would end past --seconds. *)
  let m0 = now () in
  let rec loop i last acc =
    if i > 2 && now () -. m0 +. last > a.seconds then List.rev acc
    else begin
      let p0 = now () in
      let p = run_pass i in
      let last = now () -. p0 in
      if i = 0 then peak_rss := peak_rss_mb ();
      Printf.eprintf "perfbench: pass %d ref_wall_s=%.4g%s\n%!" i
        (sum fst p.units)
        (String.concat ""
           (List.map
              (fun k ->
                match List.assoc_opt k p.values with
                | Some v -> Printf.sprintf " %s=%.4g" k v
                | None -> "")
              [ "wall_s"; "cpu_s"; "machine.self_s"; "trace.overhead_pct" ]));
      loop (i + 1) last (p :: acc)
    end
  in
  let passes = loop 0 0.0 [] in
  let first = List.hd passes in
  List.iter
    (fun p ->
      if p.digest <> first.digest then
        broken "sim_digest differs between passes of the same inputs")
    passes;
  (* The first pass warms up the heap, caches and branch predictors and
     is only checked; the medians are over the passes after it. *)
  let timed = match passes with _ :: (_ :: _ as rest) -> rest | l -> l in
  let med name =
    R.median (List.filter_map (fun p -> List.assoc_opt name p.values) timed)
  in
  Printf.printf "passes %d\n" (List.length passes);
  let correct = tally.failed = 0 && not tally.broken in
  let line =
    if a.traced then begin
      Option.iter (Spans.write_csv spans) a.spans_out;
      let values =
        List.map
          (fun (m : R.metric) ->
            let v =
              if m.R.name = "sim_digest" then R.digest_value first.digest
              else med m.R.name
            in
            (m.R.name, v))
          R.per_layer
      in
      R.result_line ~correct ~attempted:tally.attempted ~failed:tally.failed
        R.per_layer values
    end
    else begin
      (* One row per cell: host seconds are the median over passes. *)
      print_endline "cell\tprogram arch variant\thost_s\tsim_insns\tns_per_insn\tminor_words_per_insn";
      List.iteri
        (fun i (r : row) ->
          let host =
            Option.map
              (fun _ -> R.median (List.filter_map (fun p -> (List.nth p.rows i).host_s) timed))
              r.host_s
          in
          let per_insn v = ratio v (float_of_int r.insns) in
          let fmt = function Some v -> Printf.sprintf "%.4g" v | None -> "-" in
          Printf.printf "cell\t%s\t%s\t%d\t%s\t%s\n" r.label (fmt host) r.insns
            (fmt (Option.map (fun h -> per_insn (h *. 1e9)) host))
            (fmt (Option.map per_insn r.minor)))
        first.rows;
      (* A typical pass: each unit's median over the timed passes, in
         seconds of the reference host, summed.  Host interference comes
         in bursts of a few seconds, so per-unit medians are steadier
         than the median pass. *)
      let unit_median pick =
        List.fold_left ( +. ) 0.0
          (List.mapi
             (fun i _ -> R.median (List.map (fun p -> pick (List.nth p.units i)) timed))
             first.units)
      in
      let wall_s = unit_median fst and cpu_s = unit_median snd in
      let insns = med "sim.insns" in
      let values =
        [ ("wall_s", wall_s); ("cpu_s", cpu_s);
          ("setup_s", R.median (List.map fst setups));
          ("host_ns_per_insn", ratio (cpu_s *. 1e9) insns);
          ("minor_words_per_insn", med "minor_words_per_insn");
          ("peak_rss_mb", !peak_rss);
          ("cells_ok",
            1.0 -. ratio (float_of_int tally.failed) (float_of_int tally.attempted)) ]
      in
      R.result_line ~correct ~attempted:tally.attempted ~failed:tally.failed
        R.end_to_end values
    end
  in
  print_endline line;
  exit 0
