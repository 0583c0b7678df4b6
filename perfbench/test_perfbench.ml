(* Tests of the benchmark itself: the traced driver reproduces
   Harness.run, the metric tables match BENCHMARK.json, and the
   simulation digest is stable across runs. *)

open Experiments
module W = Perfbench.Workload
module R = Perfbench.Report

let program id = Option.get (Workloads.Suite.by_id id)

(* Long enough for GC jitter and ambient noise to show in the cycles. *)
let test_iterations = 100

let short (c : W.cell) = { c with W.iterations = test_iterations }

let traced_equals_harness (c : W.cell) () =
  let spans = Perfbench.Spans.create () in
  let traced, probes =
    Perfbench.Driver.run ~spans ~iterations:c.W.iterations ~config:c.W.config c.W.bench
  in
  let plain = Harness.run ~iterations:c.W.iterations ~config:c.W.config c.W.bench in
  Alcotest.(check bool) "same result as Harness.run" true (compare traced plain = 0);
  Alcotest.(check (option string)) "no error" None traced.Harness.error;
  Alcotest.(check string) "first span is the cell" "cell"
    (Perfbench.Spans.get spans 0).Perfbench.Spans.name;
  Alcotest.(check bool) "decode probe saw the codes" true
    (probes.Perfbench.Driver.decode_uops > 0 || traced.Harness.compiles = 0)

let first_cell kind = short (List.hd (W.cells kind ~seed:7))

(* The figure slice's distinctive cell: calibrated check removal. *)
let removal_cell () =
  let b = program "HASH" in
  let removable, _ = Common.removable_groups ~arch:Arch.X64 b in
  let variant = Common.V_no_checks removable in
  { W.bench = b; variant; iterations = test_iterations;
    config = Common.config_for ~arch:Arch.X64 ~seed:3 variant }

(* BENCHMARK.json, read as text: the [name]/[unit]/[better] triples of
   one metric list, in order. *)
let json_metrics text key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then raise Not_found
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go i
  in
  let start = find_from 0 ("\"" ^ key ^ "\"") in
  let stop = find_from start "]" in
  let field i name =
    let j = find_from i ("\"" ^ name ^ "\"") in
    let q0 = find_from (j + String.length name + 2) "\"" in
    let q1 = find_from (q0 + 1) "\"" in
    (String.sub text (q0 + 1) (q1 - q0 - 1), q1)
  in
  let rec collect i acc =
    match find_from i "{" with
    | exception Not_found -> List.rev acc
    | j when j > stop -> List.rev acc
    | j ->
      let name, _ = field j "name" in
      let unit_, _ = field j "unit" in
      let better, k = field j "better" in
      collect k ((name, unit_, better) :: acc)
  in
  collect start []

let metrics_match_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let mine ms =
    List.map
      (fun (m : R.metric) ->
        (m.R.name, m.R.unit_, match m.R.better with `Lower -> "lower" | `Higher -> "higher"))
      ms
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (mine R.end_to_end) (json_metrics text "end_to_end");
  Alcotest.check triple "per_layer" (mine R.per_layer) (json_metrics text "per_layer")

let digest_stable () =
  let digest () =
    String.concat ""
      (List.map
         (fun c ->
           let c = short c in
           R.cell_digest
             (Harness.run ~iterations:c.W.iterations ~config:c.W.config c.W.bench))
         (List.filteri (fun i _ -> i < 2) (W.cells W.Jit_steady ~seed:11)))
  in
  let a = digest () in
  Alcotest.(check string) "two runs, one digest" a (digest ())

let seeds_make_cells () =
  let seeds kind s = List.map (fun c -> c.W.config.Engine.seed) (W.cells kind ~seed:s) in
  Alcotest.(check (list int)) "same seed, same cells" (seeds W.Jit_steady 4)
    (seeds W.Jit_steady 4);
  Alcotest.(check bool) "another seed, other engine seeds" true
    (seeds W.Interp_reference 4 <> seeds W.Interp_reference 5)

let () =
  Alcotest.run "perfbench"
    [ ( "driver",
        [ Alcotest.test_case "jit-steady cell = Harness.run" `Quick
            (fun () -> traced_equals_harness (first_cell W.Jit_steady) ());
          Alcotest.test_case "interp-reference cell = Harness.run" `Quick
            (fun () -> traced_equals_harness (first_cell W.Interp_reference) ());
          Alcotest.test_case "figure-slice removal cell = Harness.run" `Quick
            (fun () -> traced_equals_harness (removal_cell ()) ()) ] );
      ( "contract",
        [ Alcotest.test_case "metrics match BENCHMARK.json" `Quick
            metrics_match_benchmark_json;
          Alcotest.test_case "sim_digest stable across runs" `Quick digest_stable;
          Alcotest.test_case "cells from the seed" `Quick seeds_make_cells ] ) ]
