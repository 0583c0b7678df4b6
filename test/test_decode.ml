(* Decoded-engine coverage: the decode cache (hits, invalidation
   through fresh code objects), the static block shape of a known
   snippet, block-batched counters equal to the direct interpreter's,
   the hot path's allocation bound, and a golden-model test of the
   branch predictor's hot path. *)

let () = Unix.putenv "VSPEC_CACHE_DIR" "off"

(* A 15-instruction snippet (one i-cache line at base 0x100) with a
   loop whose body mixes a check (tst + deopt_if), a load + untag, ALU
   work and a compare + back-edge:

     mov r0, #0            ; uop 0
     mov r1, #16           ; uop 1
     mov r5, #2            ; uop 2   (even: Tst.Ne never fires)
   L0:
     tst r5, #1            ; uop 3
     deopt_if ne, dp0      ; uop 4
     ldr r2, [r1]          ; uop 5
     asr r2, r2, #1        ; uop 6
     add r3, r0, #5        ; uop 7
     eor r4, r1, #9        ; uop 8
     add r0, r0, #1        ; uop 9
     cmp r0, #4            ; uop 10
     b.lt L0               ; uop 11
     mov r0, r3            ; uop 12
     ret                   ; uop 13

   Leaders are uops {0, 3, 12} (entry, loop target, Bcond successor),
   so there are 3 accounting blocks.  The loop runs 4 iterations and
   returns r3 = 8. *)
let snippet () =
  let i k = Insn.make k in
  let alu ~op ~dst ~src rhs =
    i (Insn.Alu { op; dst; src; rhs; set_flags = false })
  in
  let cprov role = Insn.Check { group = Insn.G_not_smi; role } in
  let deopts =
    [| { Code.dp_id = 0; reason = Insn.Not_a_smi; bc_pc = 0; frame = [||];
         accumulator = Code.Fv_dead } |]
  in
  Code.assemble ~code_id:0 ~name:"snippet" ~arch:Arch.Arm64 ~deopts
    ~gp_slots:8 ~fp_slots:4 ~base_addr:0x100
    [ i (Insn.Mov (0, Insn.Imm 0));
      i (Insn.Mov (1, Insn.Imm 16));
      i (Insn.Mov (5, Insn.Imm 2));
      i (Insn.Label 0);
      Insn.make ~prov:(cprov Insn.Role_condition) (Insn.Tst (5, Insn.Imm 1));
      Insn.make ~prov:(cprov Insn.Role_branch) (Insn.Deopt_if (Insn.Ne, 0));
      i (Insn.Ldr (2, Insn.mk_addr 1));
      alu ~op:Insn.Asr ~dst:2 ~src:2 (Insn.Imm 1);
      alu ~op:Insn.Add ~dst:3 ~src:0 (Insn.Imm 5);
      alu ~op:Insn.Eor ~dst:4 ~src:1 (Insn.Imm 9);
      alu ~op:Insn.Add ~dst:0 ~src:0 (Insn.Imm 1);
      i (Insn.Cmp (0, Insn.Imm 4));
      i (Insn.Bcond (Insn.Lt, 0));
      i (Insn.Mov (0, Insn.Reg 3));
      i Insn.Ret ]

let null_host () =
  { Exec.memory = Memory.create 64;
    call_builtin = (fun _ _ -> 0);
    call_js = (fun _ _ -> 0) }

let test_static_shape () =
  let st = Decode.stats (Decode.compile (snippet ())) in
  Alcotest.(check int) "micro-ops" 14 st.Decode.st_uops;
  Alcotest.(check int) "accounting blocks" 3 st.Decode.st_blocks

let test_cache_hit () =
  let code = snippet () in
  let p1 = Decode.get code in
  Alcotest.(check bool) "second get is a cache hit" true
    (p1 == Decode.get code)

let test_fresh_code_invalidation () =
  (* Recompilation always builds a fresh [Code.t], so a stale program
     cannot be served; the fresh object is decoded from scratch and
     reaches the same static shape. *)
  let c1 = snippet () in
  let p1 = Decode.get c1 in
  let c2 = snippet () in
  let p2 = Decode.get c2 in
  Alcotest.(check bool) "fresh code object, fresh program" true (p2 != p1);
  Alcotest.(check bool) "same static shape" true
    (Decode.stats p1 = Decode.stats p2)

let test_batched_counters () =
  (* Block-entry charges must leave every counter exactly where the
     direct interpreter's per-instruction accounting does. *)
  let run exec =
    let cpu = Cpu.create Cpu.fast_arm64 in
    (match exec cpu ~host:(null_host ()) ~code:(snippet ()) ~args:[||] with
    | Exec.Done v -> Alcotest.(check int) "snippet returns 8" 8 v
    | _ -> Alcotest.fail "expected Done");
    cpu.Cpu.counters
  in
  let d = run Exec.run_direct and b = run Decode.run in
  let int name f = Alcotest.(check int) name (f d) (f b) in
  let float name f =
    Alcotest.(check int64) name
      (Int64.bits_of_float (f d))
      (Int64.bits_of_float (f b))
  in
  int "instructions" (fun c -> c.Perf.instructions);
  int "branches" (fun c -> c.Perf.branches);
  int "taken_branches" (fun c -> c.Perf.taken_branches);
  int "mispredicts" (fun c -> c.Perf.mispredicts);
  int "loads" (fun c -> c.Perf.loads);
  int "stores" (fun c -> c.Perf.stores);
  float "frontend_stall" (fun c -> c.Perf.frontend_stall);
  float "backend_stall" (fun c -> c.Perf.backend_stall);
  int "check_instructions" (fun c -> c.Perf.check_instructions);
  int "check_branches" (fun c -> c.Perf.check_branches);
  Alcotest.(check (array int)) "check_per_group" d.Perf.check_per_group
    b.Perf.check_per_group;
  int "deopt_events" (fun c -> c.Perf.deopt_events);
  int "jit_instructions" (fun c -> c.Perf.jit_instructions);
  int "runtime_instructions" (fun c -> c.Perf.runtime_instructions);
  Alcotest.(check bool) "every field compared" true (d = b);
  Alcotest.(check int) "4 iterations x 2 check instructions" 8
    b.Perf.check_instructions

(* ---------------- allocation-free hot path ---------------- *)

(* A loop that drives every issue path the figures lean on: indexed
   loads and stores, a dependent divide chain (out-of-order backend
   stalls once it outruns the ROB slack on fast_arm64; in-order stalls
   on inorder_a55), a data-dependent branch over a pseudo-random bit
   pattern (mispredicts), a taken back-edge, and compare+branch
   pairs.  2000 iterations retire about 26k instructions. *)
let alloc_iters = 2000

let alloc_kernel () =
  let i k = Insn.make k in
  let alu op ~dst ~src rhs =
    i (Insn.Alu { op; dst; src; rhs; set_flags = false })
  in
  Code.assemble ~code_id:0 ~name:"alloc" ~arch:Arch.Arm64 ~deopts:[||]
    ~gp_slots:4 ~fp_slots:4 ~base_addr:0x100
    [ i (Insn.Mov (0, Insn.Imm 0));
      i (Insn.Mov (1, Insn.Imm 16)) (* word 8 *);
      i (Insn.Mov (2, Insn.Imm 0));
      i (Insn.Mov (7, Insn.Imm 1000003));
      i (Insn.Label 0);
      alu Insn.And ~dst:6 ~src:0 (Insn.Imm 127);
      alu Insn.Lsl ~dst:6 ~src:6 (Insn.Imm 1);
      i (Insn.Ldr (3, Insn.mk_addr ~index:6 1));
      alu Insn.Sdiv ~dst:7 ~src:7 (Insn.Imm 1);
      alu Insn.Mul ~dst:7 ~src:7 (Insn.Imm 1);
      i (Insn.Cmp (3, Insn.Imm 0));
      i (Insn.Bcond (Insn.Eq, 1));
      alu Insn.Add ~dst:2 ~src:2 (Insn.Imm 3);
      i (Insn.Label 1);
      i (Insn.Str (Insn.mk_addr ~index:6 ~offset:256 1, 2));
      alu Insn.Add ~dst:0 ~src:0 (Insn.Imm 1);
      i (Insn.Cmp (0, Insn.Imm alloc_iters));
      i (Insn.Bcond (Insn.Lt, 0));
      i (Insn.Mov (0, Insn.Reg 2));
      i Insn.Ret ]

let alloc_memory () =
  let m = Memory.create 512 in
  let x = ref 12345 in
  for w = 8 to 8 + 127 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m.{w} <- (!x lsr 16) land 1
  done;
  m

(* ROADMAP's target for the decoded engine. *)
let max_minor_words_per_insn = 0.1

let test_alloc_bound () =
  List.iter
    (fun cfg ->
      let sampler = Perf.create_sampler ~period:211.0 ~seed:1 in
      let cpu = Cpu.create ~sampler cfg in
      let host = { (null_host ()) with Exec.memory = alloc_memory () } in
      let code = alloc_kernel () in
      let run () =
        match Decode.run cpu ~host ~code ~args:[||] with
        | Exec.Done _ -> ()
        | _ -> Alcotest.fail "expected Done"
      in
      (* The first run decodes the program; measure the second. *)
      run ();
      let c = cpu.Cpu.counters in
      let insns0 = c.Perf.instructions
      and mis0 = c.Perf.mispredicts
      and fe0 = c.Perf.frontend_stall
      and be0 = c.Perf.backend_stall
      and samples0 = Perf.total_samples sampler in
      let w0 = Gc.minor_words () in
      run ();
      let words = Gc.minor_words () -. w0 in
      let insns = c.Perf.instructions - insns0 in
      let name = cfg.Cpu.cfg_name in
      let covers what b =
        Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true b
      in
      covers "mispredicts" (c.Perf.mispredicts > mis0);
      covers "frontend stalls" (c.Perf.frontend_stall > fe0);
      covers "backend stalls" (c.Perf.backend_stall > be0);
      covers "samples taken" (Perf.total_samples sampler > samples0);
      let per_insn = words /. float_of_int insns in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f minor words/insn <= %.1f (%d insns)" name
           per_insn max_minor_words_per_insn insns)
        true
        (per_insn <= max_minor_words_per_insn))
    [ Cpu.fast_arm64; Cpu.inorder_a55 ]

(* ---------------- predictor hot path ---------------- *)

let test_predictor_golden () =
  (* Pin the optimized int-only gshare path against an independently
     written reference model over a deterministic pseudo-random
     (pc, taken) stream. *)
  let bits = 6 in
  let t = Predictor.create ~bits () in
  let size = 1 lsl bits in
  let mask = size - 1 in
  let tab = Array.make size 2 in
  let ghr = ref 0 in
  let reference ~pc ~taken =
    let idx = (pc lxor !ghr) land mask in
    let c = tab.(idx) in
    let hit = c >= 2 = taken in
    tab.(idx) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
    ghr := ((!ghr lsl 1) lor (if taken then 1 else 0)) land mask;
    hit
  in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for step = 1 to 500 do
    let pc = next () land 1023 in
    let taken = next () land 3 <> 0 in
    Alcotest.(check bool)
      (Printf.sprintf "step %d (pc=%d taken=%b)" step pc taken)
      (reference ~pc ~taken)
      (Predictor.predict_and_update t ~pc ~taken)
  done

let test_predictor_converges () =
  (* Counters initialize weakly-taken, so an always-taken loop branch
     predicts correctly from the first execution — the property the
     paper leans on for rarely-taken check branches being near-free. *)
  let t = Predictor.create ~bits:10 () in
  let hits = ref 0 in
  for _ = 1 to 64 do
    if Predictor.predict_and_update t ~pc:0x40 ~taken:true then incr hits
  done;
  Alcotest.(check int) "always-taken branch never mispredicts" 64 !hits

let suite =
  [
    ( "decode",
      [
        Alcotest.test_case "static shape of a known snippet" `Quick
          test_static_shape;
        Alcotest.test_case "cache hit" `Quick test_cache_hit;
        Alcotest.test_case "fresh code object invalidates" `Quick
          test_fresh_code_invalidation;
        Alcotest.test_case "batched counters equal direct" `Quick
          test_batched_counters;
        Alcotest.test_case "decoded hot path allocation bound" `Quick
          test_alloc_bound;
        Alcotest.test_case "predictor matches golden model" `Quick
          test_predictor_golden;
        Alcotest.test_case "predictor converges on taken loop" `Quick
          test_predictor_converges;
      ] );
  ]
