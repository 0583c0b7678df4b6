(** Type-feedback vectors collected by the interpreter.

    Each feedback slot starts uninitialized, becomes monomorphic on
    first use, widens to polymorphic on conflicting observations, and
    saturates at megamorphic — the lattice TurboFan consumes to decide
    which speculative fast path (and hence which deoptimization checks)
    to emit. *)

type operand_type =
  | Ot_none          (** uninitialized: no execution reached the site *)
  | Ot_smi
  | Ot_number        (** at least one heap-number operand *)
  | Ot_string
  | Ot_any

val join_operand : operand_type -> operand_type -> operand_type

(** Where a named property was found for a given receiver map. *)
type prop_site =
  | Own of int                           (** own slot index *)
  | Proto of { holder : int; slot : int }  (** found on the prototype chain *)
  | Transition of { new_map : int; slot : int }  (** store adding a property *)
  | Length                               (** array/string .length *)

type slot =
  | Sl_binop of operand_type ref
  | Sl_compare of operand_type ref
  | Sl_prop of {
      mutable entries : (int * prop_site) list;  (** receiver map id -> site *)
      mutable megamorphic : bool;
    }
  | Sl_elem of {
      mutable maps : int list;          (** receiver (array) map ids seen *)
      mutable smi_index : bool;         (** all keys so far were SMIs *)
      mutable megamorphic : bool;
    }
  | Sl_call of {
      mutable targets : (int * int) list;
          (** (function id, function object pointer) *)
      mutable megamorphic : bool;
    }

type vector = slot array

val create : Bytecode.func_info -> vector
(** Slot kinds are inferred from the bytecode's feedback sites. *)

val record_binop : vector -> int -> operand_type -> unit
val record_compare : vector -> int -> operand_type -> unit
val record_prop : vector -> int -> map_id:int -> prop_site -> unit
val own_hit : vector -> int -> map_id:int -> int
(** The slot of an [Own] entry for [map_id] at property site [i], or
    [-1].  Such an entry is a fixed fact: a map's properties never
    change once it is created, and a site always names one property.
    So the interpreter may use a hit as its inline cache and skip both
    the lookup and {!record_prop}, which would record an equal entry.
    [Proto], [Transition] and [Length] entries never hit. *)

val record_elem : vector -> int -> map_id:int -> smi_index:bool -> unit
val record_call : vector -> int -> target:int -> target_obj:int -> unit
val mark_megamorphic : vector -> int -> unit
(** Force a slot to the generic state (e.g. after an out-of-bounds
    access or a non-SMI key). *)

val binop_type : vector -> int -> operand_type
val compare_type : vector -> int -> operand_type
val prop_entries : vector -> int -> (int * prop_site) list option
(** [None] when megamorphic or uninitialized. *)

val elem_info : vector -> int -> (int list * bool) option
val call_target : vector -> int -> (int * int) option
(** The unique observed (fid, function object) target, if monomorphic. *)

val is_uninitialized : vector -> int -> bool

val max_polymorphic : int
(** Entries beyond this count make a property site megamorphic (4, as
    in V8). *)
