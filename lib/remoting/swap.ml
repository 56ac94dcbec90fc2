(* Buffer-granularity device-memory swapping (§4.3).

   The paper's argument: swapping whole buffer objects (whose sizes and
   lifetimes the spec exposes) avoids out-of-memory failures for
   contending guests at far lower overhead than page- or chunk-based
   schemes.  This manager tracks residency and decides evictions; actual
   data movement and its timing are the caller's callbacks (which go
   through the silo's DMA paths). *)

type entry = {
  e_key : int;
  e_bytes : int;
  mutable e_resident : bool;
  mutable e_last_use : int;
}

type t = {
  capacity : int;
  mutable resident_bytes : int;
  entries : (int, entry) Hashtbl.t;
  mutable tick : int;
  evict : key:int -> bytes:int -> unit;
  restore : key:int -> bytes:int -> unit;
  mutable evictions : int;
  mutable restores : int;
}

let create ~capacity ~evict ~restore =
  if capacity <= 0 then invalid_arg "Swap.create: capacity must be positive";
  {
    capacity;
    resident_bytes = 0;
    entries = Hashtbl.create 64;
    tick = 0;
    evict;
    restore;
    evictions = 0;
    restores = 0;
  }

let touch_tick t e =
  t.tick <- t.tick + 1;
  e.e_last_use <- t.tick

let resident_bytes t = t.resident_bytes
let evictions t = t.evictions
let restores t = t.restores
let tracked t = Hashtbl.length t.entries

let lru_victim t =
  Hashtbl.fold
    (fun _ e best ->
      if not e.e_resident then best
      else
        match best with
        | Some b when b.e_last_use <= e.e_last_use -> best
        | _ -> Some e)
    t.entries None

(* Evict LRU buffers until [need] bytes fit. *)
let rec make_room t ~need =
  if t.resident_bytes + need <= t.capacity then Ok ()
  else
    match lru_victim t with
    | None -> Error `Cannot_make_room
    | Some victim ->
        victim.e_resident <- false;
        t.resident_bytes <- t.resident_bytes - victim.e_bytes;
        t.evictions <- t.evictions + 1;
        t.evict ~key:victim.e_key ~bytes:victim.e_bytes;
        make_room t ~need

(* Track a new buffer, evicting others if needed. *)
let add t ~key ~bytes =
  if bytes > t.capacity then Error `Too_big
  else if Hashtbl.mem t.entries key then invalid_arg "Swap.add: duplicate key"
  else
    match make_room t ~need:bytes with
    | Error `Cannot_make_room -> Error `Too_big
    | Ok () ->
        let e =
          { e_key = key; e_bytes = bytes; e_resident = true; e_last_use = 0 }
        in
        touch_tick t e;
        Hashtbl.replace t.entries key e;
        t.resident_bytes <- t.resident_bytes + bytes;
        Ok ()

(* Ensure a buffer is resident before the device touches it. *)
let touch t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> Error `Unknown
  | Some e ->
      touch_tick t e;
      if e.e_resident then Ok ()
      else begin
        match make_room t ~need:e.e_bytes with
        | Error `Cannot_make_room -> Error `Cannot_make_room
        | Ok () ->
            e.e_resident <- true;
            t.resident_bytes <- t.resident_bytes + e.e_bytes;
            t.restores <- t.restores + 1;
            t.restore ~key ~bytes:e.e_bytes;
            Ok ()
      end

let remove t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e ->
      if e.e_resident then t.resident_bytes <- t.resident_bytes - e.e_bytes;
      Hashtbl.remove t.entries key

let remove_if t f =
  List.iter
    (fun key -> remove t ~key)
    (Hashtbl.fold (fun key _ acc -> if f key then key :: acc else acc)
       t.entries [])

let is_resident t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> false
  | Some e -> e.e_resident

(* Invariant for property tests. *)
let check_invariants t =
  let sum =
    Hashtbl.fold
      (fun _ e acc -> if e.e_resident then acc + e.e_bytes else acc)
      t.entries 0
  in
  sum = t.resident_bytes && t.resident_bytes <= t.capacity
