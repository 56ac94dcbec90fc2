(* IOMMU model: the device-side address space backing shared virtual
   addressing (SVA).

   Guest buffers are mapped into an IOVA window once — paying a per-page
   pin cost — after which remoted calls can carry a fixed-size
   (iova, size) reference instead of the payload bytes.  The device's
   first access to a mapping misses the IOTLB and pays an IO page fault;
   invalidation (unmap, or a migration quiesce) pays an IOTLB shootdown.
   Zero-copy is therefore modelled as cheaper than copying, not free.

   The unit is programmed like real hardware: map and invalidate
   commands go through a small MMIO register file, so register traffic
   is observable by the same counters as the GPU's. *)

open Ava_sim

(* IOVA window handed to guests.  Anything outside is rejected both here
   and at wire-decode time, so a corrupted or hostile reference can
   never alias device memory. *)
let iova_base = 0x1_0000_0000L
let iova_limit = 0x101_0000_0000L
let page_size = Dma.page_size

(* Command registers (written on map/invalidate, like a real unit's
   command queue tail). *)
let reg_map_base = 0x00
let reg_map_size = 0x08
let reg_invalidate = 0x10

type mapping = {
  mp_data : bytes;  (** pinned guest pages backing the region *)
  mp_size : int;
  mutable mp_faulted : bool;  (** translation resident in the IOTLB *)
}

type t = {
  timing : Timing.iommu;
  regs : Mmio.t;
  table : (int64, mapping) Hashtbl.t;
  mutable next_iova : int64;
  mutable maps : int;
}

let create ?(timing = Timing.default_iommu) () =
  {
    timing;
    regs = Mmio.create ();
    table = Hashtbl.create 64;
    next_iova = iova_base;
    maps = 0;
  }

let timing t = t.timing
let maps t = t.maps
let mappings t = Hashtbl.length t.table

let pages_of size = (size + page_size - 1) / page_size

let in_window iova size =
  Int64.compare iova iova_base >= 0
  && size >= 0
  && Int64.compare (Int64.add iova (Int64.of_int size)) iova_limit <= 0

(* Pin the buffer's pages and install the translation.  Must run inside
   a process: charges the per-page pin cost. *)
let map t data =
  let size = Bytes.length data in
  let pages = pages_of size in
  Engine.delay (pages * t.timing.Timing.pin_page_ns);
  let iova = t.next_iova in
  let span = Int64.of_int (Stdlib.max page_size (pages * page_size)) in
  t.next_iova <- Int64.add t.next_iova span;
  if not (in_window iova size) then failwith "iommu: IOVA window exhausted";
  Mmio.write t.regs ~addr:reg_map_base iova;
  Mmio.write t.regs ~addr:reg_map_size (Int64.of_int size);
  Hashtbl.replace t.table iova
    { mp_data = data; mp_size = size; mp_faulted = false };
  t.maps <- t.maps + 1;
  iova

(* Resolve a device access to a mapped region.  The first touch of each
   mapping misses the IOTLB and pays the IO-page-fault service cost;
   later touches hit.  Only exact-base references with an in-bounds
   size translate — anything else is a hard error the server maps to a
   bad-arguments status (never a crash, never silent truncation). *)
let translate t ~iova ~size =
  if not (in_window iova size) then
    Error (Printf.sprintf "iova %Lx outside the IOVA window" iova)
  else
    match Hashtbl.find_opt t.table iova with
    | None -> Error (Printf.sprintf "no mapping at iova %Lx" iova)
    | Some m when size > m.mp_size ->
        Error
          (Printf.sprintf "access of %d bytes overruns %d-byte mapping" size
             m.mp_size)
    | Some m ->
        if not m.mp_faulted then begin
          m.mp_faulted <- true;
          Engine.delay t.timing.Timing.fault_ns
        end;
        if size = m.mp_size then Ok m.mp_data
        else Ok (Bytes.sub m.mp_data 0 size)

(* Batched invalidation used when a VM migrates to another device: one
   shootdown covers the whole address space, and every mapping's next
   access on the destination refaults (its IOTLB is cold). *)
let quiesce t =
  Engine.delay t.timing.Timing.shootdown_ns;
  Mmio.write t.regs ~addr:reg_invalidate (-1L);
  Hashtbl.iter (fun _ m -> m.mp_faulted <- false) t.table

(* Tear down the whole address space when its VM retires: one batched
   shootdown (not one per mapping — nothing will ever access these
   translations again), then unpin everything.  Idempotent: an empty
   table costs nothing and makes no register writes. *)
let release_all t =
  if Hashtbl.length t.table > 0 then begin
    Engine.delay t.timing.Timing.shootdown_ns;
    Mmio.write t.regs ~addr:reg_invalidate (-1L);
    Hashtbl.reset t.table
  end
