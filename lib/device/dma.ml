(* DMA engine: serialized transfers over the host link (PCIe or USB).

   A transfer occupies one of the engine's channels for
   setup + bytes/bandwidth; callers block for the duration.  An optional
   per-page surcharge models shadow-paging/bounce-buffer costs imposed by
   full virtualization. *)

open Ava_sim

type t = {
  channels : Semaphore.t;
  setup_ns : Time.t;
  bytes_per_s : float;
  mutable bytes_moved : int;
  mutable transfers : int;
}

let create ?(channels = 2) ~setup_ns ~bytes_per_s () =
  {
    channels = Semaphore.create channels;
    setup_ns;
    bytes_per_s;
    bytes_moved = 0;
    transfers = 0;
  }

let of_gpu_timing (timing : Timing.gpu) =
  create ~setup_ns:timing.Timing.dma_setup_ns
    ~bytes_per_s:timing.Timing.pcie_bytes_per_s ()

let page_size = 4096

let transfer ?(per_page_ns = 0) t ~bytes =
  if bytes < 0 then invalid_arg "Dma.transfer: negative size";
  Semaphore.with_acquired t.channels (fun () ->
      let pages = (bytes + page_size - 1) / page_size in
      Engine.delay t.setup_ns;
      Engine.delay (Time.of_bandwidth ~bytes ~bytes_per_s:t.bytes_per_s);
      if per_page_ns > 0 then Engine.delay (pages * per_page_ns);
      t.bytes_moved <- t.bytes_moved + bytes;
      t.transfers <- t.transfers + 1)

(* One scatter-gather descriptor chain covering every segment of a call:
   a single channel acquisition and a single setup charge regardless of
   segment count — this is what replaces N per-buffer copies with one
   descriptor ring submission.  [per_page_ns] is the per-page surcharge
   for the pages the chain spans (IOTLB walks under SVA, shadow paging
   under full virtualization).  When [stream] is false only the
   descriptor/walk overhead is charged: the payload itself moves on the
   device's ordinary DMA path later (SVA resolution, where the mapped
   guest pages are the source and the handler's transfer streams them). *)
let transfer_sg ?(per_page_ns = 0) ?(stream = true) t ~segs =
  let total =
    List.fold_left
      (fun acc bytes ->
        if bytes < 0 then invalid_arg "Dma.transfer_sg: negative segment";
        acc + bytes)
      0 segs
  in
  Semaphore.with_acquired t.channels (fun () ->
      let pages =
        List.fold_left
          (fun acc bytes -> acc + ((bytes + page_size - 1) / page_size))
          0 segs
      in
      Engine.delay t.setup_ns;
      if stream then
        Engine.delay (Time.of_bandwidth ~bytes:total ~bytes_per_s:t.bytes_per_s);
      if per_page_ns > 0 then Engine.delay (pages * per_page_ns);
      if stream then t.bytes_moved <- t.bytes_moved + total)

let bytes_moved t = t.bytes_moved
let transfers t = t.transfers
