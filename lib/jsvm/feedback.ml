type operand_type = Ot_none | Ot_smi | Ot_number | Ot_string | Ot_any

let join_operand a b =
  match (a, b) with
  | Ot_none, x | x, Ot_none -> x
  | Ot_smi, Ot_smi -> Ot_smi
  | (Ot_smi | Ot_number), (Ot_smi | Ot_number) -> Ot_number
  | Ot_string, Ot_string -> Ot_string
  | _ -> Ot_any

type prop_site =
  | Own of int
  | Proto of { holder : int; slot : int }
  | Transition of { new_map : int; slot : int }
  | Length

type slot =
  | Sl_binop of operand_type ref
  | Sl_compare of operand_type ref
  | Sl_prop of {
      mutable entries : (int * prop_site) list;
      mutable megamorphic : bool;
    }
  | Sl_elem of {
      mutable maps : int list;
      mutable smi_index : bool;
      mutable megamorphic : bool;
    }
  | Sl_call of { mutable targets : (int * int) list; mutable megamorphic : bool }

type vector = slot array

let max_polymorphic = 4

let create (f : Bytecode.func_info) =
  let v =
    Array.init f.Bytecode.n_feedback (fun _ -> Sl_binop (ref Ot_none))
  in
  Array.iter
    (fun op ->
      match Bytecode.is_feedback_site op with
      | None -> ()
      | Some fb ->
        let slot =
          match op with
          | Bytecode.Binop _ | Bytecode.Neg_acc _ | Bytecode.Bitnot_acc _ ->
            Sl_binop (ref Ot_none)
          | Bytecode.Test _ -> Sl_compare (ref Ot_none)
          | Bytecode.Get_named _ | Bytecode.Set_named _ ->
            Sl_prop { entries = []; megamorphic = false }
          | Bytecode.Get_keyed _ | Bytecode.Set_keyed _ ->
            Sl_elem { maps = []; smi_index = true; megamorphic = false }
          | Bytecode.Call _ | Bytecode.Construct _ ->
            Sl_call { targets = []; megamorphic = false }
          | Bytecode.Call_method _ ->
            (* Two consecutive slots: the method load, then the call. *)
            v.(fb + 1) <- Sl_call { targets = []; megamorphic = false };
            Sl_prop { entries = []; megamorphic = false }
          | _ -> Sl_binop (ref Ot_none)
        in
        v.(fb) <- slot)
    f.Bytecode.code;
  v

let record_binop v i ot =
  match v.(i) with
  | Sl_binop r -> r := join_operand !r ot
  | _ -> invalid_arg "Feedback.record_binop: wrong slot kind"

let record_compare v i ot =
  match v.(i) with
  | Sl_compare r -> r := join_operand !r ot
  | _ -> invalid_arg "Feedback.record_compare: wrong slot kind"

let site_equal a b =
  match (a, b) with
  | Own x, Own y -> x = y
  | Proto a, Proto b -> a.holder = b.holder && a.slot = b.slot
  | Transition a, Transition b -> a.new_map = b.new_map && a.slot = b.slot
  | Length, Length -> true
  | (Own _ | Proto _ | Transition _ | Length), _ -> false

let rec find_entry map_id = function
  | [] -> None
  | (m, site) :: rest -> if m = map_id then Some site else find_entry map_id rest

let rec remove_entry map_id = function
  | [] -> []
  | ((m, _) as e) :: rest ->
    if m = map_id then rest else e :: remove_entry map_id rest

let rec mem_int x = function [] -> false | y :: rest -> y = x || mem_int x rest

let rec mem_target x = function
  | [] -> false
  | (y, _) :: rest -> y = x || mem_target x rest

let record_prop v i ~map_id site =
  match v.(i) with
  | Sl_prop p ->
    if not p.megamorphic then begin
      match find_entry map_id p.entries with
      | Some existing when site_equal existing site -> ()
      | Some _ ->
        (* Same map resolving differently (e.g. transition then own):
           update in place. *)
        p.entries <- (map_id, site) :: remove_entry map_id p.entries
      | None ->
        if List.length p.entries >= max_polymorphic then begin
          p.megamorphic <- true;
          if !Trace.on then
            Trace.instant ~cat:"jsvm" ~arg:(Printf.sprintf "slot=%d" i)
              "ic:prop->megamorphic"
        end
        else begin
          p.entries <- (map_id, site) :: p.entries;
          if !Trace.on then
            Trace.instant ~cat:"jsvm"
              ~arg:(Printf.sprintf "slot=%d maps=%d" i (List.length p.entries))
              "ic:prop-transition"
        end
    end
  | _ -> invalid_arg "Feedback.record_prop: wrong slot kind"

let rec own_in map_id = function
  | [] -> -1
  | (m, Own s) :: _ when m = map_id -> s
  | _ :: rest -> own_in map_id rest

let own_hit v i ~map_id =
  match v.(i) with Sl_prop p -> own_in map_id p.entries | _ -> -1

let record_elem v i ~map_id ~smi_index =
  match v.(i) with
  | Sl_elem e ->
    if not e.megamorphic then begin
      if not (mem_int map_id e.maps) then begin
        if List.length e.maps >= max_polymorphic then begin
          e.megamorphic <- true;
          if !Trace.on then
            Trace.instant ~cat:"jsvm" ~arg:(Printf.sprintf "slot=%d" i)
              "ic:elem->megamorphic"
        end
        else begin
          e.maps <- map_id :: e.maps;
          if !Trace.on then
            Trace.instant ~cat:"jsvm"
              ~arg:(Printf.sprintf "slot=%d maps=%d" i (List.length e.maps))
              "ic:elem-transition"
        end
      end;
      if not smi_index then e.smi_index <- false
    end
  | _ -> invalid_arg "Feedback.record_elem: wrong slot kind"

let record_call v i ~target ~target_obj =
  match v.(i) with
  | Sl_call c ->
    if not c.megamorphic && not (mem_target target c.targets) then begin
      if List.length c.targets >= 2 then begin
        c.megamorphic <- true;
        if !Trace.on then
          Trace.instant ~cat:"jsvm" ~arg:(Printf.sprintf "slot=%d" i)
            "ic:call->megamorphic"
      end
      else begin
        c.targets <- (target, target_obj) :: c.targets;
        if !Trace.on then
          Trace.instant ~cat:"jsvm"
            ~arg:(Printf.sprintf "slot=%d targets=%d" i (List.length c.targets))
            "ic:call-transition"
      end
    end
  | _ -> invalid_arg "Feedback.record_call: wrong slot kind"

let mark_megamorphic v i =
  match v.(i) with
  | Sl_binop r | Sl_compare r -> r := Ot_any
  | Sl_prop p -> p.megamorphic <- true
  | Sl_elem e -> e.megamorphic <- true
  | Sl_call c -> c.megamorphic <- true

let binop_type v i =
  match v.(i) with
  | Sl_binop r -> !r
  | _ -> Ot_any

let compare_type v i =
  match v.(i) with
  | Sl_compare r -> !r
  | _ -> Ot_any

let prop_entries v i =
  match v.(i) with
  | Sl_prop { entries = []; _ } -> None
  | Sl_prop { megamorphic = true; _ } -> None
  | Sl_prop { entries; _ } -> Some entries
  | _ -> None

let elem_info v i =
  match v.(i) with
  | Sl_elem { maps = []; _ } -> None
  | Sl_elem { megamorphic = true; _ } -> None
  | Sl_elem { maps; smi_index; _ } -> Some (maps, smi_index)
  | _ -> None

let call_target v i =
  match v.(i) with
  | Sl_call { targets = [ t ]; megamorphic = false } -> Some t
  | _ -> None

let is_uninitialized v i =
  match v.(i) with
  | Sl_binop r | Sl_compare r -> !r = Ot_none
  | Sl_prop { entries; megamorphic } -> entries = [] && not megamorphic
  | Sl_elem { maps; megamorphic; _ } -> maps = [] && not megamorphic
  | Sl_call { targets; megamorphic } -> targets = [] && not megamorphic
