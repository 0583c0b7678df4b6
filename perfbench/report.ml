type metric = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [ m "wall_s" "s" `Lower;
    m "cpu_s" "s" `Lower;
    m "setup_s" "s" `Lower;
    m "host_ns_per_insn" "ns" `Lower;
    m "minor_words_per_insn" "words" `Lower;
    m "peak_rss_mb" "MB" `Lower;
    m "cells_ok" "ratio" `Higher ]

let per_layer =
  [ m "frontend.compile_s" "s" `Lower;
    m "runtime.create_s" "s" `Lower;
    m "runtime.create_major_words" "words" `Lower;
    m "interpreter.main_s" "s" `Lower;
    m "interpreter.self_s" "s" `Lower;
    m "interpreter.sim_insns" "count" `Lower;
    m "heap.safepoint_s" "s" `Lower;
    m "heap.gc_runs" "count" `Lower;
    m "turbofan.compile_s" "s" `Lower;
    m "turbofan.compiles" "count" `Lower;
    m "engine.deopts" "count" `Lower;
    m "decode.s" "s" `Lower;
    m "decode.uops" "count" `Lower;
    m "machine.self_s" "s" `Lower;
    m "machine.jit_insns" "count" `Lower;
    m "machine.ns_per_jit_insn" "ns" `Lower;
    m "machine.minor_words_per_jit_insn" "words" `Lower;
    m "perf.samples" "count" `Lower;
    m "harness.attribute_s" "s" `Lower;
    m "figure.fig1_s" "s" `Lower;
    m "figure.fig7_s" "s" `Lower;
    m "common.sims" "count" `Lower;
    m "common.disk_hits" "count" `Higher;
    m "plan.cells" "count" `Lower;
    m "plan.parallel_eff" "ratio" `Higher;
    m "gc.minor_collections" "count" `Lower;
    m "sim.cycles" "cycles" `Lower;
    m "sim.insns" "count" `Lower;
    m "sim_digest" "digest" `Lower;
    m "trace.overhead_pct" "%" `Lower;
    m "trace.coverage" "ratio" `Higher ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_line ~correct ~attempted ~failed metrics values =
  let entry (mt : metric) =
    match List.assoc_opt mt.name values with
    | Some v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (number v) mt.unit_
    | None -> invalid_arg ("perfbench: no value for metric " ^ mt.name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map entry metrics))

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let digest_value hex = float_of_string ("0x" ^ String.sub hex 0 13)

let cell_digest (r : Experiments.Harness.result) =
  let open Experiments.Harness in
  Digest.string
    (Marshal.to_string
       (r.iter_cycles, r.iter_deopts, r.counters, r.checksum, r.total_cycles)
       [])
