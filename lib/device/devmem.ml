(* First-fit device-memory allocator with free-block coalescing.

   Offsets are plain integers into the device's address space.  The
   allocator is deliberately simple: accelerator runtimes allocate large,
   long-lived buffers, so fragmentation behaviour matters less than
   correct accounting (which the swap and OOM experiments rely on). *)

type block = { offset : int; size : int }

type t = {
  capacity : int;
  mutable free : block list; (* sorted by offset, non-adjacent *)
  mutable used : int;
  mutable peak_used : int;
  allocated : (int, int) Hashtbl.t; (* offset -> size *)
}

let create capacity =
  if capacity <= 0 then invalid_arg "Devmem.create: capacity must be > 0";
  {
    capacity;
    free = [ { offset = 0; size = capacity } ];
    used = 0;
    peak_used = 0;
    allocated = Hashtbl.create 64;
  }

let capacity t = t.capacity
let used t = t.used
let peak_used t = t.peak_used

(* Round all allocations to 256-byte granules, like real GPU heaps. *)
let granule = 256
let round_up size = (size + granule - 1) / granule * granule

let alloc t size =
  if size <= 0 then invalid_arg "Devmem.alloc: size must be > 0";
  let size = round_up size in
  let rec take acc = function
    | [] -> None
    | b :: rest when b.size >= size ->
        let remainder =
          if b.size = size then []
          else [ { offset = b.offset + size; size = b.size - size } ]
        in
        t.free <- List.rev_append acc (remainder @ rest);
        Some b.offset
    | b :: rest -> take (b :: acc) rest
  in
  match take [] t.free with
  | None -> Error `Out_of_memory
  | Some offset ->
      t.used <- t.used + size;
      if t.used > t.peak_used then t.peak_used <- t.used;
      Hashtbl.replace t.allocated offset size;
      Ok offset

let free t offset =
  match Hashtbl.find_opt t.allocated offset with
  | None -> invalid_arg "Devmem.free: unknown offset"
  | Some size ->
      Hashtbl.remove t.allocated offset;
      t.used <- t.used - size;
      (* Insert sorted and coalesce with neighbours. *)
      let rec insert = function
        | [] -> [ { offset; size } ]
        | b :: rest when offset < b.offset ->
            if offset + size = b.offset then
              { offset; size = size + b.size } :: rest
            else { offset; size } :: b :: rest
        | b :: rest ->
            if b.offset + b.size = offset then
              (* Coalesce left, then possibly right. *)
              insert_merged { offset = b.offset; size = b.size + size } rest
            else b :: insert rest
      and insert_merged merged = function
        | b :: rest when merged.offset + merged.size = b.offset ->
            { merged with size = merged.size + b.size } :: rest
        | rest -> merged :: rest
      in
      t.free <- insert t.free

(* Invariant checks used by property tests. *)
let check_invariants t =
  let rec disjoint_sorted = function
    | a :: (b :: _ as rest) ->
        a.offset + a.size <= b.offset
        && a.offset + a.size <> b.offset (* coalesced: never adjacent *)
        && disjoint_sorted rest
    | _ -> true
  in
  let free_total = List.fold_left (fun acc b -> acc + b.size) 0 t.free in
  let alloc_total = Hashtbl.fold (fun _ s acc -> acc + s) t.allocated 0 in
  disjoint_sorted t.free
  && free_total + alloc_total = t.capacity
  && alloc_total = t.used
