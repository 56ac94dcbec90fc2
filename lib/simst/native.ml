(* Native SimST stack over the simulated stream accelerator; one
   instance per host process, as with the other silos.

   Everything asynchronous is enqueued through {!Device.enqueue}, so the
   native stack and the remoted stack share the same ordering machinery
   — parity tests compare results and completion times directly. *)

open Ava_sim
open Types

let call_ns = Time.ns 250

type st = {
  dev : Device.t;
  mutable next_handle : int;
  streams : (stream_handle, Device.stream) Hashtbl.t;
  events : (event_handle, Device.event) Hashtbl.t;
  mems : (mem_handle, int) Hashtbl.t;  (* api handle -> device mem id *)
  tickets : (int, (bytes, status) Stdlib.result Ivar.t) Hashtbl.t;
}

let enter () =
  Engine.delay call_ns

let fresh st =
  st.next_handle <- st.next_handle + 1;
  st.next_handle

(* Built-in kernels over int32 elements.  Reads happen at execution
   time, after any copies enqueued ahead of the launch. *)
let run_kernel ~name ~a ~b ~out ~n =
  for i = 0 to n - 1 do
    let x = Bytes.get_int32_le a (4 * i) in
    let v =
      match name with
      | "vadd" -> Int32.add x (Bytes.get_int32_le b (4 * i))
      | "scale" -> Int32.mul 2l x
      | _ -> assert false
    in
    Bytes.set_int32_le out (4 * i) v
  done

let kernel_known = function "vadd" | "scale" -> true | _ -> false

let create ?(owned = false) dev =
  let st =
    {
      dev;
      next_handle = 900;
      streams = Hashtbl.create 8;
      events = Hashtbl.create 8;
      mems = Hashtbl.create 16;
      tickets = Hashtbl.create 8;
    }
  in
  let stream h = Hashtbl.find_opt st.streams h in
  let mem h =
    match Hashtbl.find_opt st.mems h with
    | None -> None
    | Some id -> Device.find_mem st.dev id
  in
  let guard f =
    if Device.killed st.dev then Error St_device_lost else f ()
  in
  let module M = struct
    let stDeviceGetCount () =
      enter ();
      guard (fun () -> Ok 1)

    let stStreamCreate () =
      enter ();
      guard (fun () ->
          let h = fresh st in
          Hashtbl.replace st.streams h (Device.stream_create st.dev);
          Ok h)

    let stStreamDestroy h =
      enter ();
      guard (fun () ->
          match stream h with
          | None -> Error St_invalid_value
          | Some s ->
              Device.stream_sync s;
              Device.stream_destroy st.dev s;
              Hashtbl.remove st.streams h;
              Ok ())

    let stStreamSynchronize h =
      enter ();
      guard (fun () ->
          match stream h with
          | None -> Error St_invalid_value
          | Some s ->
              Device.stream_sync s;
              Ok ())

    let stEventCreate () =
      enter ();
      guard (fun () ->
          let h = fresh st in
          Hashtbl.replace st.events h (Device.event_create ());
          Ok h)

    let stEventDestroy h =
      enter ();
      guard (fun () ->
          if Hashtbl.mem st.events h then begin
            Hashtbl.remove st.events h;
            Ok ()
          end
          else Error St_invalid_value)

    let stEventRecord eh sh =
      enter ();
      guard (fun () ->
          match (Hashtbl.find_opt st.events eh, stream sh) with
          | Some ev, Some s ->
              Device.event_record ev s;
              Ok ()
          | _ -> Error St_invalid_value)

    let stEventSynchronize eh =
      enter ();
      guard (fun () ->
          match Hashtbl.find_opt st.events eh with
          | None -> Error St_invalid_value
          | Some ev ->
              Device.event_sync ev;
              Ok ())

    let stStreamWaitEvent sh eh =
      enter ();
      guard (fun () ->
          match (stream sh, Hashtbl.find_opt st.events eh) with
          | Some s, Some ev ->
              Device.stream_wait_event st.dev s ev;
              Ok ()
          | _ -> Error St_invalid_value)

    let stMemAlloc ~size =
      enter ();
      guard (fun () ->
          match Device.alloc st.dev ~size with
          | Error `Invalid -> Error St_invalid_value
          | Error `Nomem -> Error St_out_of_memory
          | Ok id ->
              let h = fresh st in
              Hashtbl.replace st.mems h id;
              Ok h)

    let stMemFree h =
      enter ();
      guard (fun () ->
          match Hashtbl.find_opt st.mems h with
          | None -> Error St_invalid_value
          | Some id ->
              ignore (Device.free st.dev id);
              Hashtbl.remove st.mems h;
              Ok ())

    let stMemcpyHtoDAsync dst ~src sh =
      enter ();
      guard (fun () ->
          match (mem dst, stream sh) with
          | Some storage, Some s when Bytes.length src <= Bytes.length storage
            ->
              let src = if owned then src else Bytes.copy src in
              Device.enqueue st.dev s
                ~cost:(Device.copy_cost st.dev ~bytes:(Bytes.length src))
                (fun ~ok ->
                  if ok then
                    Bytes.blit src 0 storage 0 (Bytes.length src));
              Ok ()
          | _ -> Error St_invalid_value)

    let stMemcpyDtoH ~size h =
      enter ();
      guard (fun () ->
          match mem h with
          | Some storage when size >= 0 && size <= Bytes.length storage ->
              Device.quiesce st.dev;
              if Device.killed st.dev then Error St_device_lost
              else begin
                Device.sync_copy st.dev ~bytes:size;
                Ok (Bytes.sub storage 0 size)
              end
          | _ -> Error St_invalid_value)

    let stLaunchKernel sh ~name ~a ~b ~out ~n =
      enter ();
      guard (fun () ->
          match (stream sh, mem a, mem b, mem out) with
          | Some s, Some ba, Some bb, Some bout
            when kernel_known name && n >= 0 && 4 * n <= Bytes.length ba
                 && 4 * n <= Bytes.length bb
                 && 4 * n <= Bytes.length bout ->
              Device.enqueue ~kernels:1 st.dev s
                ~cost:
                  (Device.kernel_cost st.dev ~n ~flops_per_item:1
                     ~bytes_per_item:12) (fun ~ok ->
                  if ok then run_kernel ~name ~a:ba ~b:bb ~out:bout ~n);
              Ok ()
          | _ -> Error St_invalid_value)

    let stBatchSubmit sh ~batch ~item_size =
      enter ();
      guard (fun () ->
          let len = Bytes.length batch in
          if item_size <= 0 || len = 0 || len mod item_size <> 0 then
            Error St_invalid_value
          else
            let items = len / item_size in
            if items > (Device.timing st.dev).Device.queue_slots then
              Error St_queue_full
            else
              match stream sh with
              | None -> Error St_invalid_value
              | Some s ->
                  let batch = if owned then batch else Bytes.copy batch in
                  let ticket = fresh st in
                  let result = Ivar.create () in
                  Hashtbl.replace st.tickets ticket result;
                  Device.enqueue ~kernels:items st.dev s
                    ~cost:(Device.batch_cost st.dev ~items ~bytes:len)
                    (fun ~ok ->
                      Ivar.fill result
                        (if ok then Ok (Device.batch_scores ~batch ~item_size)
                         else Error St_device_lost));
                  Ok ticket)

    let stBatchCollect sh ~ticket ~size =
      enter ();
      guard (fun () ->
          match (stream sh, Hashtbl.find_opt st.tickets ticket) with
          | Some _, Some result -> (
              match Ivar.read result with
              | Error _ as e ->
                  Hashtbl.remove st.tickets ticket;
                  e
              | Ok scores when Bytes.length scores <= size ->
                  Hashtbl.remove st.tickets ticket;
                  Ok scores
              | Ok _ -> Error St_invalid_value)
          | _ -> Error St_invalid_value)
  end in
  ((module M : Api.S), st)

let live_streams st = Hashtbl.length st.streams
let live_mems st = Hashtbl.length st.mems

let find_mem st h =
  match Hashtbl.find_opt st.mems h with
  | None -> None
  | Some id -> Device.find_mem st.dev id

let quiesce st = Device.quiesce st.dev
