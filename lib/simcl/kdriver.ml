(* SimCL kernel-mode driver: the bottom of the silo.

   Entered via [ioctl] (charging the user/kernel crossing), it owns the
   device-buffer lifecycle, writes command descriptors through an MMIO
   {!Ava_device.Mmio.port} (so the *same* driver runs natively, under
   pass-through, or fully trapped), performs DMA, and fields completion
   interrupts.

   The choice of port and the per-page DMA surcharge are the only knobs a
   virtualization technique can turn — exactly the paper's point that
   silos expose no clean internal seams. *)

open Ava_sim
open Ava_device

let cmd_addr_reg = 0x00
let cmd_size_reg = 0x04

type t = {
  engine : Engine.t;
  gpu : Gpu.t;
  port : Mmio.port;
  per_page_ns : Time.t;
  timing : Timing.gpu;
}

let create ?port ?(per_page_ns = 0) gpu =
  let timing = Gpu.timing gpu in
  let port =
    match port with
    | Some p -> p
    | None -> Mmio.native_port (Gpu.mmio gpu) ~timing
  in
  { engine = Gpu.engine gpu; gpu; port; per_page_ns; timing }

let engine t = t.engine
let gpu t = t.gpu

(* Cross into the kernel, run [f], return. *)
let ioctl t f =
  Engine.delay t.timing.Timing.ioctl_ns;
  f ()

let alloc_buffer t ~size = ioctl t (fun () -> Gpu.create_buffer t.gpu ~size)

let free_buffer t id = ioctl t (fun () -> Gpu.destroy_buffer t.gpu id)

(* Submit a command: a 16-word descriptor into the BAR-mapped ring, the
   descriptor registers, then the doorbell — the MMIO-heavy pattern that
   makes trap-based interposition so expensive (§2). *)
let descriptor_words = 16

let submit ?client t work =
  ioctl t (fun () ->
      let completion = Gpu.submit ?client t.gpu work in
      for word = 0 to descriptor_words - 1 do
        t.port.Mmio.port_write ~addr:(0x100 + (8 * word))
          (Int64.of_int (word * 7))
      done;
      t.port.Mmio.port_write ~addr:cmd_addr_reg 0xBEEFL;
      t.port.Mmio.port_write ~addr:cmd_size_reg 64L;
      t.port.Mmio.port_write ~addr:Gpu.doorbell_addr 1L;
      completion)

(* Block until a command completes; the interrupt costs delivery time. *)
let wait t (completion : Gpu.completion) =
  Ivar.read completion.Gpu.done_;
  Engine.delay t.timing.Timing.irq_ns

let write_buffer ?client t ~buf ~offset ~src =
  ioctl t (fun () ->
      Gpu.write_buffer ~per_page_ns:t.per_page_ns ?client t.gpu ~buf ~offset
        ~src)

let read_into ?client t ~buf ~offset ~dst =
  ioctl t (fun () ->
      Gpu.read_into ~per_page_ns:t.per_page_ns ?client t.gpu ~buf ~offset
        ~dst)

(* Device-to-device copy and fill ride the command ring so they order
   with kernels naturally. *)
let copy_work ~src ~dst ~src_offset ~dst_offset ~size =
  {
    Gpu.kernel_name = "<copy>";
    work_items = size;
    flops_per_item = 0.0;
    bytes_per_item = 2.0 (* read + write per byte *);
    action =
      Some
        (fun () ->
          Bytes.blit src.Gpu.data src_offset dst.Gpu.data dst_offset size);
  }

let fill_work ~buf ~pattern ~offset ~size =
  {
    Gpu.kernel_name = "<fill>";
    work_items = size;
    flops_per_item = 0.0;
    bytes_per_item = 1.0;
    action = Some (fun () -> Bytes.fill buf.Gpu.data offset size pattern);
  }
