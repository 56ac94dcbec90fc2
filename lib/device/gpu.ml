(* The simulated GPU.

   Hardware state is a register file, a device-memory heap, a DMA engine
   and a command processor fed by a hardware ring.  Kernel execution time
   follows a roofline model: launch overhead plus
   max(flops / peak_flops, bytes / memory_bandwidth).

   Kernels may carry a semantic action (a host closure over buffer
   contents) so that tests and examples can check computational results
   end-to-end through every virtualization stack; pure timing workloads
   omit it. *)

open Ava_sim

let doorbell_addr = 0x10
let status_addr = 0x14

type buffer = {
  buf_id : int;
  offset : int;
  size : int;
  mutable data : Bytes.t;
}

type kernel_work = {
  kernel_name : string;
  work_items : int;
  flops_per_item : float;
  bytes_per_item : float;
  action : (unit -> unit) option;
}

type completion = {
  queued_at : Time.t;
  mutable started_at : Time.t;
  mutable finished_at : Time.t;
  client : int;
  mutable failed : bool;
  done_ : unit Ivar.t;
}

type t = {
  engine : Engine.t;
  timing : Timing.gpu;
  mmio : Mmio.t;
  dma : Dma.t;
  mem : Devmem.t;
  ring : (kernel_work * completion) Channel.t;
  buffers : (int, buffer) Hashtbl.t;
  fault : Devfault.t option;
  mutable wedged : (kernel_work * completion) option;
  mutable dead : bool;  (** board lost: every command fails instantly *)
  cp_resume : unit Engine.waitq;
  mutable resets : int;
  mutable next_buf_id : int;
  mutable busy_ns : Time.t;
  mutable kernels_executed : int;
}

let kernel_duration (timing : Timing.gpu) work =
  let flops = float_of_int work.work_items *. work.flops_per_item in
  let bytes = float_of_int work.work_items *. work.bytes_per_item in
  let compute_s = flops /. timing.Timing.flops_per_s in
  let memory_s = bytes /. timing.Timing.mem_bytes_per_s in
  Time.add timing.Timing.kernel_launch_ns
    (Time.of_float_s (Float.max compute_s memory_s))

let create ?(timing = Timing.gtx1080) ?devfault engine =
  let t =
    {
      engine;
      timing;
      mmio = Mmio.create ();
      dma = Dma.of_gpu_timing timing;
      mem = Devmem.create timing.Timing.mem_capacity;
      ring = Channel.create ~capacity:1024 ();
      buffers = Hashtbl.create 64;
      fault = devfault;
      wedged = None;
      dead = false;
      cp_resume = Engine.waitq ();
      resets = 0;
      next_buf_id = 1;
      busy_ns = 0;
      kernels_executed = 0;
    }
  in
  (* Command processor: drain the ring forever.  Faults intercept a
     launch before the roofline path: a hang parks the CP (until
     [reset] resumes it); a transient launch failure charges only the
     launch overhead and completes the command as failed. *)
  Engine.spawn engine (fun () ->
      let rec loop () =
        let work, completion = Channel.recv t.ring in
        (if t.dead then begin
           (* Lost board: commands fail instantly, no time charged. *)
           completion.started_at <- Engine.now engine;
           completion.failed <- true;
           completion.finished_at <- Engine.now engine;
           Ivar.fill completion.done_ ()
         end
         else
        match t.fault with
        | Some f when Devfault.gpu_hangs f ~client:completion.client ->
            completion.started_at <- Engine.now engine;
            t.wedged <- Some (work, completion);
            Engine.park t.cp_resume
        | Some f when Devfault.gpu_launch_fails f ~client:completion.client
          ->
            completion.started_at <- Engine.now engine;
            Engine.delay timing.Timing.kernel_launch_ns;
            completion.failed <- true;
            completion.finished_at <- Engine.now engine;
            Ivar.fill completion.done_ ()
        | _ ->
            completion.started_at <- Engine.now engine;
            let d = kernel_duration timing work in
            Engine.delay d;
            (match work.action with Some f -> f () | None -> ());
            t.busy_ns <- t.busy_ns + d;
            t.kernels_executed <- t.kernels_executed + 1;
            completion.finished_at <- Engine.now engine;
            Mmio.write t.mmio ~addr:status_addr
              (Int64.of_int t.kernels_executed);
            Ivar.fill completion.done_ ());
        loop ()
      in
      loop ());
  t

let engine t = t.engine
let timing t = t.timing
let mmio t = t.mmio
let dma t = t.dma
let mem t = t.mem
let busy_ns t = t.busy_ns
let kernels_executed t = t.kernels_executed
let resets t = t.resets
let wedged t = t.wedged <> None

(* Permanent device loss (board falls off the bus): the wedged command
   (if any) completes as failed, ring survivors and all future
   submissions fail instantly, and no reset revives the board.  Device
   memory stays readable so an evacuation can still snapshot buffers. *)
let kill t =
  if not t.dead then begin
    t.dead <- true;
    (match t.wedged with
    | Some (_work, completion) ->
        completion.failed <- true;
        completion.finished_at <- Engine.now t.engine;
        Ivar.fill completion.done_ ();
        t.wedged <- None
    | None -> ());
    if Engine.parked t.cp_resume then Engine.wake t.cp_resume ()
  end

(* The client whose command wedged the CP (TDR blame). *)
let wedged_by t =
  Option.map (fun (_, (c : completion)) -> c.client) t.wedged

(* Buffer management (device-side objects backed by real bytes). *)

let create_buffer t ~size =
  match Devmem.alloc t.mem size with
  | Error `Out_of_memory -> Error `Out_of_memory
  | Ok offset ->
      let id = t.next_buf_id in
      t.next_buf_id <- id + 1;
      (* Zeroed: simulated device memory must read deterministically. *)
      let buf = { buf_id = id; offset; size; data = Bytes.make size '\000' } in
      Hashtbl.replace t.buffers id buf;
      Ok buf

let destroy_buffer t id =
  match Hashtbl.find_opt t.buffers id with
  | None -> invalid_arg "Gpu.destroy_buffer: unknown buffer"
  | Some buf ->
      Devmem.free t.mem buf.offset;
      Hashtbl.remove t.buffers id

let live_buffers t = Hashtbl.length t.buffers

(* Submit a kernel to the hardware ring; the returned completion's
   [done_] ivar fills when execution finishes.  The caller (kernel
   driver) is responsible for doorbell MMIO and interrupt latency. *)
let submit ?(client = 0) t work =
  let completion =
    {
      queued_at = Engine.now t.engine;
      started_at = 0;
      finished_at = 0;
      client;
      failed = false;
      done_ = Ivar.create ();
    }
  in
  Channel.send t.ring (work, completion);
  completion

(* TDR-style device reset (Windows-TDR semantics): the wedged command is
   invalidated and completed as failed, ring survivors drain normally
   once the command processor resumes, and device memory is preserved or
   poisoned per policy.  Harmless when the CP is not wedged. *)
let reset ?(policy = `Preserve) t =
  t.resets <- t.resets + 1;
  (match t.wedged with
  | Some (_work, completion) ->
      completion.failed <- true;
      completion.finished_at <- Engine.now t.engine;
      Ivar.fill completion.done_ ();
      t.wedged <- None
  | None -> ());
  (match policy with
  | `Poison ->
      Hashtbl.iter
        (fun _ buf -> Bytes.fill buf.data 0 (Bytes.length buf.data) '\xA5')
        t.buffers
  | `Preserve -> ());
  if Engine.parked t.cp_resume then Engine.wake t.cp_resume ()

(* Host <-> device data movement; blocks for the DMA duration.
   [per_page_ns] lets full virtualization charge shadow-paging costs. *)
(* ECC/DMA corruption: flip the high bit of one deterministic byte of
   the transferred range. *)
let flip_byte data pos =
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x80))

let dma_corrupts t ~client ~len =
  len > 0
  &&
  match t.fault with
  | Some f -> Devfault.gpu_dma_corrupts f ~client
  | None -> false

let write_buffer ?(per_page_ns = 0) ?(client = 0) t ~buf ~offset ~src =
  let len = Bytes.length src in
  if offset < 0 || offset + len > buf.size then
    invalid_arg "Gpu.write_buffer: out of range";
  Dma.transfer ~per_page_ns t.dma ~bytes:len;
  Bytes.blit src 0 buf.data offset len;
  if dma_corrupts t ~client ~len then
    match t.fault with
    | Some f -> flip_byte buf.data (offset + Devfault.corrupt_pos f ~len)
    | None -> ()

let read_into ?(per_page_ns = 0) ?(client = 0) t ~buf ~offset ~dst =
  let len = Bytes.length dst in
  if offset < 0 || offset + len > buf.size then
    invalid_arg "Gpu.read_into: out of range";
  Dma.transfer ~per_page_ns t.dma ~bytes:len;
  Bytes.blit buf.data offset dst 0 len;
  if dma_corrupts t ~client ~len then
    match t.fault with
    | Some f -> flip_byte dst (Devfault.corrupt_pos f ~len)
    | None -> ()
