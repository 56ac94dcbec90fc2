(* The hypervisor: VM registry plus the device-attachment techniques of
   the paper's §2 design space.

   - [attach_passthrough]: the guest maps the device's MMIO BAR directly
     and owns a native kernel driver — native speed, zero interposition.
   - [attach_fullvirt]: every MMIO access traps to the hypervisor and DMA
     pays shadow-page handling — full interposition, devastating cost.
   - API remoting stacks do not attach the device at all; they ride a
     hypervisor-managed transport (see {!Ava_transport}) and the router.

   All three reuse the identical SimCL silo code; only the access path
   differs, which is the paper's central observation about silos. *)

open Ava_device

type t = {
  virt : Timing.virt;
  mutable vms : Vm.t list;
  mutable next_vm_id : int;
  mutable traps : int;
  mutable attachments : (int * Gpu.t) list;
      (** vm_id -> dedicated device, for pass-through / full-virt guests *)
}

let create ?(virt = Timing.default_virt) ?(vm_id_base = 1) () =
  if vm_id_base < 1 then invalid_arg "Hypervisor.create: vm_id_base must be >= 1";
  { virt; vms = []; next_vm_id = vm_id_base; traps = 0; attachments = [] }

let virt t = t.virt
let vms t = List.rev t.vms
let traps t = t.traps

let create_vm t ~name =
  let vm = Vm.create ~vm_id:t.next_vm_id ~name in
  t.next_vm_id <- t.next_vm_id + 1;
  t.vms <- vm :: t.vms;
  vm

let find_vm t vm_id = List.find_opt (fun vm -> Vm.id vm = vm_id) t.vms

let record_attachment t vm gpu =
  match vm with
  | Some vm -> t.attachments <- (Vm.id vm, gpu) :: t.attachments
  | None -> ()

let attachment t ~vm_id = List.assoc_opt vm_id t.attachments

(* Pass-through: dedicate the physical device to one guest.  The guest
   runs the vendor silo on a native port; the hypervisor sees nothing.
   [vm] records which guest the device is dedicated to, so a pooled
   host can tell which pool device a pass-through guest pinned. *)
let attach_passthrough ?vm t gpu =
  record_attachment t vm gpu;
  Ava_simcl.Kdriver.create gpu

(* Full virtualization: the guest runs the same vendor silo, but each
   MMIO access VM-exits and DMA is emulated page by page. *)
let attach_fullvirt ?vm t gpu =
  record_attachment t vm gpu;
  let counting_port =
    let inner = Mmio.trapped_port (Gpu.mmio gpu) ~virt:t.virt in
    {
      Mmio.port_write =
        (fun ~addr v ->
          t.traps <- t.traps + 1;
          inner.Mmio.port_write ~addr v);
      port_read =
        (fun ~addr ->
          t.traps <- t.traps + 1;
          inner.Mmio.port_read ~addr);
    }
  in
  Ava_simcl.Kdriver.create ~port:counting_port
    ~per_page_ns:t.virt.Timing.shadow_page_ns gpu
