(* Rodinia-shaped OpenCL workloads (Che et al., IISWC '09) — the ten
   benchmarks of Figure 5.

   Each benchmark reproduces the *call-graph shape* of its namesake:
   iteration counts, kernel-launch counts, argument-update patterns,
   buffer sizes and synchronization points.  Kernel durations use
   synthetic kernels whose per-item flop counts are solved from a target
   duration on the reference GPU, because relative virtualization
   overhead is a function of the call mix, not of what the kernel
   computes.

   Payloads are zero-filled ([Bytes.make], never the uninitialized
   [Bytes.create]): the simulation must be deterministic, and the
   transfer cache digests payload contents. *)

open Clutil
open Ava_simcl.Types

type benchmark = {
  name : string;
  description : string;
  run : (module Ava_simcl.Api.S) -> unit;
}

let kib n = n * 1024
let mib n = n * 1024 * 1024

(* Per-item flops so that [items] work items run for [us] on the
   reference GPU (pure compute roofline). *)
let flops_for ~items ~us =
  let flops = Ava_device.Timing.gtx1080.Ava_device.Timing.flops_per_s in
  us *. 1e-6 *. flops /. float_of_int items

let kernel_decl name ~items ~us = (name, flops_for ~items ~us, 0.0)

(* backprop: two-layer neural net; a handful of large kernels over
   moderate buffers, two result read-backs. *)
let backprop api =
  let s = open_session api in
  let input = buffer s (mib 1) in
  let weights = buffer s (mib 1) in
  let hidden = buffer s (kib 64) in
  let delta = buffer s (mib 1) in
  write s input (Bytes.make (mib 1) '\000');
  write s weights (Bytes.make (mib 1) '\000');
  write s delta (Bytes.make (mib 1) '\000');
  let items = 65536 in
  let kernels =
    build_kernels s
      [
        kernel_decl "layerforward" ~items ~us:800.0;
        kernel_decl "adjust_weights" ~items ~us:800.0;
      ]
  in
  let forward, adjust =
    match kernels with [ a; b ] -> (a, b) | _ -> assert false
  in
  set_arg s forward 0 (Arg_mem input);
  set_arg s forward 1 (Arg_mem weights);
  set_arg s forward 2 (Arg_mem hidden);
  set_arg s adjust 0 (Arg_mem delta);
  set_arg s adjust 1 (Arg_mem weights);
  (* forward + backward over both layers *)
  launch s forward ~global:items ~local:256;
  launch s forward ~global:items ~local:256;
  launch s adjust ~global:items ~local:256;
  launch s adjust ~global:items ~local:256;
  ignore (read s hidden ~size:(kib 64));
  ignore (read s weights ~size:(mib 1));
  finish s;
  close_session s

(* bfs: level-synchronous traversal; every level launches two small
   kernels and reads back a 4-byte continuation flag — the chatty,
   synchronization-heavy extreme of the suite. *)
let bfs api =
  let s = open_session api in
  let graph = buffer s (mib 4) in
  let frontier = buffer s (mib 1) in
  let flag = buffer s 64 in
  write s graph (Bytes.make (mib 4) '\000');
  write s frontier (Bytes.make (mib 1) '\000');
  let items = 1_000_000 in
  let kernels =
    build_kernels s
      [
        kernel_decl "bfs_expand" ~items ~us:35.0;
        kernel_decl "bfs_update" ~items ~us:20.0;
      ]
  in
  let expand, update =
    match kernels with [ a; b ] -> (a, b) | _ -> assert false
  in
  set_arg s expand 0 (Arg_mem graph);
  set_arg s expand 1 (Arg_mem frontier);
  set_arg s update 0 (Arg_mem frontier);
  set_arg s update 1 (Arg_mem flag);
  for _level = 1 to 300 do
    launch s expand ~global:items ~local:256;
    launch s update ~global:items ~local:256;
    (* Continuation test: blocking 4-byte read every level. *)
    ignore (read s flag ~size:4)
  done;
  finish s;
  close_session s

(* gaussian: O(n) dependent eliminations; thousands of small launches
   with per-row argument updates, no intermediate read-backs. *)
let gaussian api =
  let s = open_session api in
  let matrix = buffer s (mib 4) in
  let vector = buffer s (kib 8) in
  write s matrix (Bytes.make (mib 4) '\000');
  write s vector (Bytes.make (kib 8) '\000');
  let n = 1024 in
  let kernels =
    build_kernels s
      [
        kernel_decl "fan1" ~items:n ~us:12.0;
        kernel_decl "fan2" ~items:(n * 16) ~us:25.0;
      ]
  in
  let fan1, fan2 =
    match kernels with [ a; b ] -> (a, b) | _ -> assert false
  in
  set_arg s fan1 0 (Arg_mem matrix);
  set_arg s fan2 0 (Arg_mem matrix);
  set_arg s fan2 1 (Arg_mem vector);
  for row = 0 to n - 1 do
    set_arg s fan1 1 (Arg_int row);
    launch s fan1 ~global:n ~local:64;
    set_arg s fan2 2 (Arg_int row);
    launch s fan2 ~global:(n * 16) ~local:256;
    (* Rodinia's harness synchronizes around kernel phases. *)
    if row mod 3 = 2 then finish s
  done;
  ignore (read s matrix ~size:(mib 4));
  finish s;
  close_session s

(* heartwall: per-frame image pipeline; a large kernel plus staging
   transfers every frame. *)
let heartwall api =
  let s = open_session api in
  let frame = buffer s (kib 600) in
  let result = buffer s (kib 300) in
  let kernels =
    build_kernels s [ kernel_decl "track" ~items:65536 ~us:1200.0 ]
  in
  let track = List.hd kernels in
  set_arg s track 0 (Arg_mem frame);
  set_arg s track 1 (Arg_mem result);
  for _frame = 1 to 20 do
    write s frame (Bytes.make (kib 600) '\000');
    launch s track ~global:65536 ~local:128;
    ignore (read s result ~size:(kib 300))
  done;
  finish s;
  close_session s

(* hotspot: iterative thermal stencil with ping-pong buffers — one
   medium kernel and two argument updates per step. *)
let hotspot api =
  let s = open_session api in
  let temp_a = buffer s (mib 1) in
  let temp_b = buffer s (mib 1) in
  let power = buffer s (mib 1) in
  write s temp_a (Bytes.make (mib 1) '\000');
  write s power (Bytes.make (mib 1) '\000');
  let items = 262_144 in
  let kernels =
    build_kernels s [ kernel_decl "hotspot_step" ~items ~us:20.0 ]
  in
  let step = List.hd kernels in
  set_arg s step 0 (Arg_mem power);
  let bufs = [| temp_a; temp_b |] in
  for iter = 0 to 999 do
    set_arg s step 1 (Arg_mem bufs.(iter land 1));
    set_arg s step 2 (Arg_mem bufs.(1 - (iter land 1)));
    launch s step ~global:items ~local:256;
    (* Timing barrier every pyramid chunk. *)
    if iter mod 10 = 9 then finish s
  done;
  ignore (read s temp_a ~size:(mib 1));
  finish s;
  close_session s

(* lud: blocked LU decomposition; three dependent kernels per block
   step. *)
let lud api =
  let s = open_session api in
  let matrix = buffer s (mib 8) in
  write s matrix (Bytes.make (mib 8) '\000');
  let kernels =
    build_kernels s
      [
        kernel_decl "lud_diagonal" ~items:256 ~us:8.0;
        kernel_decl "lud_perimeter" ~items:4096 ~us:16.0;
        kernel_decl "lud_internal" ~items:65536 ~us:36.0;
      ]
  in
  let diag, perim, internal =
    match kernels with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  List.iter (fun k -> set_arg s k 0 (Arg_mem matrix)) [ diag; perim; internal ];
  for step = 0 to 127 do
    set_arg s diag 1 (Arg_int step);
    launch s diag ~global:256 ~local:16;
    set_arg s perim 1 (Arg_int step);
    launch s perim ~global:4096 ~local:64;
    set_arg s internal 1 (Arg_int step);
    launch s internal ~global:65536 ~local:256;
    if step mod 4 = 3 then finish s
  done;
  ignore (read s matrix ~size:(mib 8));
  finish s;
  close_session s

(* nn: nearest neighbor — one bulk upload, one long memory-bound kernel,
   a tiny sorted read-back.  The least chatty benchmark. *)
let nn api =
  let s = open_session api in
  let records = buffer s (kib 512) in
  let distances = buffer s (kib 16) in
  write s records (Bytes.make (kib 512) '\000');
  let kernels =
    build_kernels s [ kernel_decl "nn_distance" ~items:1_000_000 ~us:8000.0 ]
  in
  let k = List.hd kernels in
  set_arg s k 0 (Arg_mem records);
  set_arg s k 1 (Arg_mem distances);
  launch s k ~global:1_000_000 ~local:256;
  ignore (read s distances ~size:(kib 16));
  finish s;
  close_session s

(* nw: Needleman-Wunsch — anti-diagonal wavefront of very small
   dependent kernels. *)
let nw api =
  let s = open_session api in
  let score = buffer s (mib 4) in
  write s score (Bytes.make (mib 4) '\000');
  let kernels =
    build_kernels s [ kernel_decl "nw_diag" ~items:2048 ~us:12.0 ]
  in
  let diag = List.hd kernels in
  set_arg s diag 0 (Arg_mem score);
  (* Two passes of 127 anti-diagonals (2048 / 16-wide blocks). *)
  for _pass = 1 to 2 do
    for d = 0 to 126 do
      set_arg s diag 1 (Arg_int d);
      launch s diag ~global:2048 ~local:16;
      if d mod 7 = 6 then finish s
    done
  done;
  ignore (read s score ~size:(mib 4));
  finish s;
  close_session s

(* pathfinder: dynamic programming over rows; one small kernel and two
   argument updates per row. *)
let pathfinder api =
  let s = open_session api in
  let wall = buffer s (mib 4) in
  let result_a = buffer s (kib 400) in
  let result_b = buffer s (kib 400) in
  write s wall (Bytes.make (mib 4) '\000');
  let items = 100_000 in
  let kernels =
    build_kernels s [ kernel_decl "dynproc" ~items ~us:12.0 ]
  in
  let step = List.hd kernels in
  set_arg s step 0 (Arg_mem wall);
  let bufs = [| result_a; result_b |] in
  for row = 0 to 999 do
    set_arg s step 1 (Arg_mem bufs.(row land 1));
    set_arg s step 2 (Arg_mem bufs.(1 - (row land 1)));
    launch s step ~global:items ~local:256;
    if row mod 7 = 6 then finish s
  done;
  ignore (read s result_a ~size:(kib 400));
  finish s;
  close_session s

(* srad: speckle-reducing diffusion; two kernels per iteration with a
   blocking statistics reduction between them. *)
let srad api =
  let s = open_session api in
  let image = buffer s (mib 2) in
  let coeff = buffer s (mib 2) in
  let sums = buffer s 64 in
  write s image (Bytes.make (mib 2) '\000');
  let items = 262_144 in
  let kernels =
    build_kernels s
      [
        kernel_decl "srad1" ~items ~us:70.0;
        kernel_decl "srad2" ~items ~us:70.0;
      ]
  in
  let srad1, srad2 =
    match kernels with [ a; b ] -> (a, b) | _ -> assert false
  in
  set_arg s srad1 0 (Arg_mem image);
  set_arg s srad1 1 (Arg_mem coeff);
  set_arg s srad2 0 (Arg_mem coeff);
  set_arg s srad2 1 (Arg_mem image);
  for _iter = 1 to 300 do
    (* Statistics reduction read: synchronous. *)
    ignore (read s sums ~size:8);
    launch s srad1 ~global:items ~local:256;
    launch s srad2 ~global:items ~local:256
  done;
  ignore (read s image ~size:(mib 2));
  finish s;
  close_session s

let all =
  [
    { name = "backprop"; description = "two-layer neural net training"; run = backprop };
    { name = "bfs"; description = "level-synchronous breadth-first search"; run = bfs };
    { name = "gaussian"; description = "gaussian elimination"; run = gaussian };
    { name = "heartwall"; description = "cardiac image tracking"; run = heartwall };
    { name = "hotspot"; description = "thermal stencil"; run = hotspot };
    { name = "lud"; description = "blocked LU decomposition"; run = lud };
    { name = "nn"; description = "nearest neighbor"; run = nn };
    { name = "nw"; description = "Needleman-Wunsch alignment"; run = nw };
    { name = "pathfinder"; description = "dynamic programming"; run = pathfinder };
    { name = "srad"; description = "speckle-reducing diffusion"; run = srad };
  ]

let find name = List.find_opt (fun b -> String.equal b.name name) all
