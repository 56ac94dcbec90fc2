(** The hypervisor: VM registry plus the device-attachment techniques of
    the paper's §2 design space.

    - {!attach_passthrough}: the guest maps the device's MMIO BAR
      directly and owns a native kernel driver — native speed, zero
      interposition.
    - {!attach_fullvirt}: every MMIO access traps to the hypervisor and
      DMA pays shadow-page handling — full interposition, devastating
      cost.
    - API remoting stacks do not attach the device at all; they ride a
      hypervisor-managed transport and the router.

    All techniques reuse the identical SimCL silo code; only the access
    path differs — the paper's central observation about silos. *)

open Ava_device

type t

val create : ?virt:Timing.virt -> ?vm_id_base:int -> unit -> t
(** [vm_id_base] (default 1) is the first VM id this hypervisor mints.
    A cluster gives each host a disjoint base so VM ids stay globally
    unique — migration, routing and observability all key on them. *)

val virt : t -> Timing.virt
val vms : t -> Vm.t list
(** In creation order. *)

val traps : t -> int
(** MMIO accesses trapped so far across all full-virt attachments. *)

val create_vm : t -> name:string -> Vm.t
val find_vm : t -> int -> Vm.t option

val attach_passthrough : ?vm:Vm.t -> t -> Gpu.t -> Ava_simcl.Kdriver.t
(** Dedicate the device: native port, no interposition.  [vm] records
    the attachment (see {!attachment}), so a pooled host can tell which
    pool device a pass-through guest pinned. *)

val attach_fullvirt : ?vm:Vm.t -> t -> Gpu.t -> Ava_simcl.Kdriver.t
(** Same silo, trapped port and per-page DMA emulation costs.  [vm] as
    in {!attach_passthrough}. *)

val attachment : t -> vm_id:int -> Gpu.t option
(** The device dedicated to the VM by {!attach_passthrough} /
    {!attach_fullvirt}, when the attach recorded one. *)
