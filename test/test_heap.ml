(* Unit and property tests for the tagged-value model and the heap:
   SMI tagging, object layouts, hidden-class transitions, elements-kind
   transitions, and the mark-sweep collector. *)

let mk () = Heap.create ~size_words:(1 lsl 18)

(* ---------------- Value tagging ---------------- *)

let test_smi_roundtrip () =
  List.iter
    (fun v ->
      let t = Value.smi v in
      Alcotest.(check bool) "is smi" true (Value.is_smi t);
      Alcotest.(check int) "roundtrip" v (Value.smi_value t))
    [ 0; 1; -1; 42; Value.smi_min; Value.smi_max ]

let test_smi_out_of_range () =
  Alcotest.check_raises "too big"
    (Invalid_argument (Printf.sprintf "Value.smi: %d out of range" (Value.smi_max + 1)))
    (fun () -> ignore (Value.smi (Value.smi_max + 1)))

let test_pointer_tagging () =
  let p = Value.pointer 123 in
  Alcotest.(check bool) "is pointer" true (Value.is_pointer p);
  Alcotest.(check bool) "not smi" false (Value.is_smi p);
  Alcotest.(check int) "index" 123 (Value.pointer_index p)

let prop_smi_roundtrip =
  QCheck.Test.make ~name:"value: smi roundtrip" ~count:1000
    QCheck.(int_range Value.smi_min Value.smi_max)
    (fun v -> Value.smi_value (Value.smi v) = v)

let prop_smi_pointer_disjoint =
  QCheck.Test.make ~name:"value: smi and pointer tags disjoint" ~count:1000
    QCheck.(pair (int_range Value.smi_min Value.smi_max) (int_range 0 1_000_000))
    (fun (v, idx) -> Value.smi v <> Value.pointer idx)

(* ---------------- Numbers ---------------- *)

let test_heap_number_roundtrip () =
  let h = mk () in
  List.iter
    (fun f ->
      let p = Heap.alloc_heap_number h f in
      let f' = Heap.heap_number_value h p in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %.17g" f)
        true
        (Int64.bits_of_float f = Int64.bits_of_float f'))
    [ 0.0; -0.0; 1.5; -3.25; Float.pi; 1e300; -1e-300; Float.nan;
      Float.infinity; Float.neg_infinity ]

let test_number_smi_or_boxed () =
  let h = mk () in
  Alcotest.(check bool) "integral small -> smi" true (Value.is_smi (Heap.number h 7.0));
  Alcotest.(check bool) "fractional -> boxed" true
    (Value.is_pointer (Heap.number h 7.5));
  Alcotest.(check bool) "large -> boxed" true
    (Value.is_pointer (Heap.number h 2e9));
  Alcotest.(check bool) "-0 -> boxed" true
    (Value.is_pointer (Heap.number h (-0.0)))

let prop_heap_number_roundtrip =
  QCheck.Test.make ~name:"heap: double roundtrip bits" ~count:500 QCheck.float
    (fun f ->
      let h = mk () in
      let p = Heap.alloc_heap_number h f in
      Int64.bits_of_float (Heap.heap_number_value h p) = Int64.bits_of_float f)

(* ---------------- Strings ---------------- *)

let test_string_roundtrip () =
  let h = mk () in
  List.iter
    (fun s ->
      let p = Heap.alloc_string h s in
      Alcotest.(check string) "roundtrip" s (Heap.string_value h p);
      Alcotest.(check int) "length" (String.length s) (Heap.string_length h p))
    [ ""; "a"; "hello world"; String.make 300 'x'; String.init 256 Char.chr ]

let test_intern_identity () =
  let h = mk () in
  let a = Heap.intern h "foo" and b = Heap.intern h "foo" in
  Alcotest.(check int) "interned strings share" a b;
  let c = Heap.alloc_string h "foo" in
  Alcotest.(check bool) "alloc_string is fresh" true (a <> c)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"heap: string roundtrip" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      (* Chars are stored as 8-bit codes. *)
      let h = mk () in
      Heap.string_value h (Heap.alloc_string h s) = s)

(* ---------------- Objects and maps ---------------- *)

let test_object_properties () =
  let h = mk () in
  let o = Heap.alloc_empty_object h in
  Alcotest.(check (option int)) "missing" None (Heap.get_property h o "x");
  Heap.set_property h o "x" (Value.smi 1);
  Heap.set_property h o "y" (Value.smi 2);
  Alcotest.(check (option int)) "x" (Some (Value.smi 1)) (Heap.get_property h o "x");
  Alcotest.(check (option int)) "y" (Some (Value.smi 2)) (Heap.get_property h o "y");
  Heap.set_property h o "x" (Value.smi 9);
  Alcotest.(check (option int)) "x updated" (Some (Value.smi 9))
    (Heap.get_property h o "x")

let test_map_transitions_shared () =
  let h = mk () in
  let o1 = Heap.alloc_empty_object h in
  let o2 = Heap.alloc_empty_object h in
  Heap.set_property h o1 "a" (Value.smi 1);
  Heap.set_property h o2 "a" (Value.smi 2);
  (* Same shape -> same hidden class (paper Section II-B: maps). *)
  Alcotest.(check int) "same map" (Heap.map_of h o1).Heap.map_id
    (Heap.map_of h o2).Heap.map_id;
  Heap.set_property h o2 "b" (Value.smi 3);
  Alcotest.(check bool) "shape diverges" true
    ((Heap.map_of h o1).Heap.map_id <> (Heap.map_of h o2).Heap.map_id)

let test_many_properties_out_of_line () =
  let h = mk () in
  let o = Heap.alloc_empty_object h in
  for i = 0 to 19 do
    Heap.set_property h o (Printf.sprintf "p%d" i) (Value.smi i)
  done;
  for i = 0 to 19 do
    Alcotest.(check (option int))
      (Printf.sprintf "p%d" i)
      (Some (Value.smi i))
      (Heap.get_property h o (Printf.sprintf "p%d" i))
  done

let test_prototype_chain () =
  let h = mk () in
  let proto = Heap.alloc_empty_object h in
  Heap.set_property h proto "shared" (Value.smi 7);
  let map_id = Heap.new_object_map h ~prototype:proto in
  let o = Heap.alloc_object h ~map_id in
  Alcotest.(check (option int)) "inherited" (Some (Value.smi 7))
    (Heap.get_property h o "shared");
  Heap.set_property h o "shared" (Value.smi 8);
  Alcotest.(check (option int)) "own shadows proto" (Some (Value.smi 8))
    (Heap.get_property h o "shared");
  Alcotest.(check (option int)) "proto unchanged" (Some (Value.smi 7))
    (Heap.get_property h proto "shared")

let test_named_store_needs_object () =
  (* A function is [map][function_id][context][prototype]: it has no
     named-property slots, so a named store must not reach its fixed
     fields. *)
  let h = mk () in
  let ctx = Heap.alloc_empty_object h in
  let f = Heap.alloc_function h ~function_id:3 ~context:ctx in
  let proto = Heap.function_prototype h f in
  List.iter
    (fun (what, obj) ->
      Alcotest.(check bool) (what ^ " rejected") true
        (match Heap.set_property h obj "x" (Value.smi 5) with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ ("function", f); ("string", Heap.alloc_string h "s");
      ("heap number", Heap.alloc_heap_number h 0.5) ];
  Alcotest.(check int) "function id intact" 3 (Heap.function_id_of h f);
  Alcotest.(check int) "context intact" ctx (Heap.function_context h f);
  Alcotest.(check int) "prototype intact" proto (Heap.function_prototype h f)

(* ---------------- Arrays ---------------- *)

let test_array_basics () =
  let h = mk () in
  let a = Heap.alloc_array h Heap.Packed_smi ~capacity:2 in
  Alcotest.(check int) "empty" 0 (Heap.array_length h a);
  Heap.array_push h a (Value.smi 10);
  Heap.array_push h a (Value.smi 20);
  Heap.array_push h a (Value.smi 30);
  Alcotest.(check int) "length" 3 (Heap.array_length h a);
  Alcotest.(check int) "get 1" (Value.smi 20) (Heap.array_get h a 1);
  Alcotest.(check int) "pop" (Value.smi 30) (Heap.array_pop h a);
  Alcotest.(check int) "length after pop" 2 (Heap.array_length h a)

let kind =
  Alcotest.testable
    (fun fmt k ->
      Format.pp_print_string fmt
        (match k with
        | Heap.Packed_smi -> "smi"
        | Heap.Packed_double -> "double"
        | Heap.Packed_tagged -> "tagged"))
    ( = )

let test_elements_kind_transitions () =
  let h = mk () in
  let a = Heap.alloc_array h Heap.Packed_smi ~capacity:4 in
  Heap.array_push h a (Value.smi 1);
  Alcotest.(check kind) "starts smi" Heap.Packed_smi (Heap.array_elements_kind h a);
  (* Storing a double transitions SMI -> DOUBLE. *)
  Heap.array_push h a (Heap.alloc_heap_number h 1.5);
  Alcotest.(check kind) "to double" Heap.Packed_double (Heap.array_elements_kind h a);
  Alcotest.(check bool) "old smi readable" true
    (Heap.number_value h (Heap.array_get h a 0) = 1.0);
  Alcotest.(check bool) "double readable" true
    (Heap.number_value h (Heap.array_get h a 1) = 1.5);
  (* Storing a string transitions DOUBLE -> TAGGED. *)
  Heap.array_push h a (Heap.alloc_string h "s");
  Alcotest.(check kind) "to tagged" Heap.Packed_tagged (Heap.array_elements_kind h a);
  Alcotest.(check bool) "all preserved" true
    (Heap.number_value h (Heap.array_get h a 0) = 1.0
    && Heap.number_value h (Heap.array_get h a 1) = 1.5
    && Heap.string_value h (Heap.array_get h a 2) = "s")

let test_array_growth () =
  let h = mk () in
  let a = Heap.alloc_array h Heap.Packed_smi ~capacity:1 in
  for i = 0 to 199 do
    Heap.array_push h a (Value.smi i)
  done;
  let ok = ref true in
  for i = 0 to 199 do
    if Heap.array_get h a i <> Value.smi i then ok := false
  done;
  Alcotest.(check bool) "200 pushes preserved" true !ok

let test_array_oob_read () =
  let h = mk () in
  let a = Heap.alloc_array h Heap.Packed_smi ~capacity:2 in
  Heap.array_push h a (Value.smi 1);
  Alcotest.(check int) "oob read is undefined" (Heap.undefined h)
    (Heap.array_get h a 5)

let prop_array_pushes =
  QCheck.Test.make ~name:"heap: array pushes readable" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range (-1000) 1000))
    (fun xs ->
      let h = mk () in
      let a = Heap.alloc_array h Heap.Packed_smi ~capacity:2 in
      List.iter (fun v -> Heap.array_push h a (Value.smi v)) xs;
      List.for_all2
        (fun i v -> Heap.array_get h a i = Value.smi v)
        (List.init (List.length xs) Fun.id)
        xs)

(* ---------------- Contexts and cells ---------------- *)

let test_contexts () =
  let h = mk () in
  let parent = Heap.alloc_context h ~parent:(Heap.undefined h) ~slots:2 in
  let child = Heap.alloc_context h ~parent ~slots:1 in
  Heap.context_set h parent 0 (Value.smi 5);
  Heap.context_set h child 0 (Value.smi 9);
  Alcotest.(check int) "parent link" parent (Heap.context_parent h child);
  Alcotest.(check int) "parent slot" (Value.smi 5) (Heap.context_get h parent 0);
  Alcotest.(check int) "child slot" (Value.smi 9) (Heap.context_get h child 0)

let test_global_cells () =
  let h = mk () in
  let c = Heap.global_cell h "g" in
  Alcotest.(check int) "initially undefined" (Heap.undefined h) (Heap.cell_value h c);
  Heap.set_cell_value h c (Value.smi 3);
  Alcotest.(check int) "stable cell" c (Heap.global_cell h "g");
  Alcotest.(check int) "value" (Value.smi 3) (Heap.cell_value h c)

(* ---------------- GC ---------------- *)

let test_gc_preserves_roots () =
  let h = mk () in
  let kept = ref [] in
  Heap.add_root_provider h (fun () -> !kept);
  let a = Heap.alloc_array h Heap.Packed_tagged ~capacity:4 in
  Heap.array_push h a (Heap.alloc_string h "live");
  Heap.array_push h a (Heap.alloc_heap_number h 2.5);
  let o = Heap.alloc_empty_object h in
  Heap.set_property h o "arr" a;
  kept := [ o ];
  (* Garbage. *)
  for _ = 1 to 1000 do
    ignore (Heap.alloc_string h "garbage garbage garbage")
  done;
  let before = Heap.words_in_use h in
  Heap.gc h;
  let after = Heap.words_in_use h in
  Alcotest.(check bool) "collected something" true (after < before);
  (* Live graph intact. *)
  let a' = Option.get (Heap.get_property h o "arr") in
  Alcotest.(check int) "array ptr stable (non-moving)" a a';
  Alcotest.(check string) "string survives" "live"
    (Heap.string_value h (Heap.array_get h a' 0));
  Alcotest.(check bool) "double survives" true
    (Heap.number_value h (Heap.array_get h a' 1) = 2.5)

let test_gc_reuses_space () =
  let h = mk () in
  Heap.gc h;
  let baseline = Heap.words_in_use h in
  for _ = 1 to 50 do
    for _ = 1 to 100 do
      ignore (Heap.alloc_heap_number h 1.0)
    done;
    Heap.gc h
  done;
  Alcotest.(check bool) "no unbounded growth" true
    (Heap.words_in_use h < baseline + 4096)

let test_gc_on_full_hook () =
  let h = Heap.create ~size_words:4096 in
  let collected = ref 0 in
  Heap.set_on_full h (fun () ->
      incr collected;
      Heap.gc h;
      true);
  (* Far more garbage than the heap holds: must trigger the hook. *)
  for _ = 1 to 5000 do
    ignore (Heap.alloc_heap_number h 3.0)
  done;
  Alcotest.(check bool) "on_full ran" true (!collected > 0)

let test_object_sizes () =
  let h = mk () in
  Alcotest.(check int) "heap number" 3
    (Heap.object_size h (Heap.alloc_heap_number h 1.0));
  Alcotest.(check int) "string" (3 + 5)
    (Heap.object_size h (Heap.alloc_string h "hello"));
  Alcotest.(check int) "function" 4
    (Heap.object_size h
       (Heap.alloc_function h ~function_id:0 ~context:(Heap.undefined h)))

(* A map is found from the word an object's map field points at; any
   other word is not a map and raises [Not_found]: objects whose word 1
   is a valid map id (an oddball's kind, a string's length), a map
   field that points at a non-map object, and one at the end of the
   heap. *)
let test_map_of_non_map () =
  let size_words = 1 lsl 18 in
  let h = Heap.create ~size_words in
  let o = Heap.alloc_empty_object h in
  Alcotest.(check int) "object's own map" (Heap.empty_object_map_id h)
    (Heap.map_of h o).Heap.map_id;
  List.iter
    (fun (what, word0) ->
      let bad = Heap.alloc_empty_object h in
      Heap.store h bad 0 word0;
      Alcotest.check_raises what Not_found (fun () -> ignore (Heap.map_of h bad));
      Alcotest.check_raises (what ^ " (map id)") Not_found (fun () ->
          ignore (Heap.map_id_of_map_ptr h word0)))
    [
      ("undefined", Heap.undefined h);
      ("true", Heap.true_value h);
      ("string", Heap.alloc_string h "ab");
      ("object", o);
      ("heap number", Heap.alloc_heap_number h 1.5);
      ("last word", Value.pointer (size_words - 1));
    ]

(* Heap memory is a /dev/zero mapping (Memory.create) that only the
   GC's finaliser unmaps; a dead heap that stayed reachable would keep
   its mapping, and its touched pages, for the life of the process. *)
let dev_zero_mappings () =
  In_channel.with_open_text "/proc/self/maps" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> Str.string_match (Str.regexp ".*/dev/zero") l 0)
  |> List.length

let test_dead_heaps_unmapped () =
  let size_words = (Engine.default_config ()).Engine.heap_size in
  let live = Heap.create ~size_words in
  Alcotest.(check bool) "a live heap is a /dev/zero mapping" true
    (dev_zero_mappings () >= 1);
  ignore (Sys.opaque_identity live);
  for _ = 1 to 200 do
    (* [Heap.create] writes its boot objects into the first page. *)
    ignore (Sys.opaque_identity (Heap.create ~size_words))
  done;
  Gc.full_major ();
  let n = dev_zero_mappings () in
  if n > 8 then Alcotest.failf "%d /dev/zero mappings after 200 dead heaps" n

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "value",
      [
        Alcotest.test_case "smi roundtrip" `Quick test_smi_roundtrip;
        Alcotest.test_case "smi out of range" `Quick test_smi_out_of_range;
        Alcotest.test_case "pointer tagging" `Quick test_pointer_tagging;
        q prop_smi_roundtrip;
        q prop_smi_pointer_disjoint;
      ] );
    ( "heap-numbers",
      [
        Alcotest.test_case "roundtrip" `Quick test_heap_number_roundtrip;
        Alcotest.test_case "smi or boxed" `Quick test_number_smi_or_boxed;
        q prop_heap_number_roundtrip;
      ] );
    ( "heap-strings",
      [
        Alcotest.test_case "roundtrip" `Quick test_string_roundtrip;
        Alcotest.test_case "interning" `Quick test_intern_identity;
        q prop_string_roundtrip;
      ] );
    ( "heap-objects",
      [
        Alcotest.test_case "properties" `Quick test_object_properties;
        Alcotest.test_case "map transitions shared" `Quick test_map_transitions_shared;
        Alcotest.test_case "out-of-line properties" `Quick test_many_properties_out_of_line;
        Alcotest.test_case "prototype chain" `Quick test_prototype_chain;
        Alcotest.test_case "map_of on a non-map" `Quick test_map_of_non_map;
        Alcotest.test_case "named store needs an object" `Quick
          test_named_store_needs_object;
      ] );
    ( "heap-arrays",
      [
        Alcotest.test_case "basics" `Quick test_array_basics;
        Alcotest.test_case "elements-kind transitions" `Quick test_elements_kind_transitions;
        Alcotest.test_case "growth" `Quick test_array_growth;
        Alcotest.test_case "oob read" `Quick test_array_oob_read;
        q prop_array_pushes;
      ] );
    ( "heap-misc",
      [
        Alcotest.test_case "contexts" `Quick test_contexts;
        Alcotest.test_case "global cells" `Quick test_global_cells;
        Alcotest.test_case "object sizes" `Quick test_object_sizes;
      ] );
    ( "gc",
      [
        Alcotest.test_case "preserves live graph" `Quick test_gc_preserves_roots;
        Alcotest.test_case "reuses space" `Quick test_gc_reuses_space;
        Alcotest.test_case "on_full hook" `Quick test_gc_on_full_hook;
        Alcotest.test_case "dead heaps unmapped" `Quick test_dead_heaps_unmapped;
      ] );
  ]
