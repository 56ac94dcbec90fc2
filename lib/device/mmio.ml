(* Memory-mapped register file.

   The device exposes registers at integer addresses; writes can trigger
   device-side hooks (doorbells).  Access *cost* is not charged here —
   drivers go through a {!port}, whose implementation decides whether an
   access is a cheap native store or a trapped, emulated one.  This split
   is what lets pass-through, full-virtualization and API remoting share
   one silo implementation. *)

open Ava_sim

type t = {
  regs : (int, int64) Hashtbl.t;
  hooks : (int, int64 -> unit) Hashtbl.t;
  mutable writes : int;
  mutable reads : int;
}

let create () =
  { regs = Hashtbl.create 16; hooks = Hashtbl.create 16; writes = 0; reads = 0 }

let write t ~addr v =
  t.writes <- t.writes + 1;
  Hashtbl.replace t.regs addr v;
  match Hashtbl.find_opt t.hooks addr with
  | Some hook -> hook v
  | None -> ()

let read t ~addr =
  t.reads <- t.reads + 1;
  Option.value ~default:0L (Hashtbl.find_opt t.regs addr)

let on_write t ~addr hook = Hashtbl.replace t.hooks addr hook

let access_count t = t.writes + t.reads

(* A port is a driver's view of the register file with access costs
   baked in.  Implementations must be called from within a process. *)
type port = {
  port_write : addr:int -> int64 -> unit;
  port_read : addr:int -> int64;
}

(* Native (host or pass-through) port: cheap uncached accesses. *)
let native_port t ~(timing : Timing.gpu) =
  {
    port_write =
      (fun ~addr v ->
        Engine.delay timing.Timing.mmio_write_ns;
        write t ~addr v);
    port_read =
      (fun ~addr ->
        Engine.delay timing.Timing.mmio_read_ns;
        read t ~addr);
  }

(* Trapped port: every access costs a VM exit plus emulation (used by the
   full-virtualization baseline). *)
let trapped_port t ~(virt : Timing.virt) =
  {
    port_write =
      (fun ~addr v ->
        Engine.delay virt.Timing.trap_ns;
        write t ~addr v);
    port_read =
      (fun ~addr ->
        Engine.delay virt.Timing.trap_ns;
        read t ~addr);
  }
