(* Tests for the device substrate: allocator, MMIO, DMA, GPU and NCS. *)

open Ava_sim
open Ava_device

let mib n = n * 1024 * 1024

let devmem_tests =
  [
    Alcotest.test_case "alloc/free roundtrip" `Quick (fun () ->
        let m = Devmem.create (mib 1) in
        (match Devmem.alloc m 1000 with
        | Ok off ->
            Alcotest.(check int) "first at 0" 0 off;
            (* 1000 rounds to 1024 *)
            Alcotest.(check int) "used rounded" 1024 (Devmem.used m);
            Devmem.free m off
        | Error `Out_of_memory -> Alcotest.fail "unexpected OOM");
        Alcotest.(check int) "all free" 0 (Devmem.used m);
        Alcotest.(check bool) "invariants" true (Devmem.check_invariants m));
    Alcotest.test_case "out of memory" `Quick (fun () ->
        let m = Devmem.create 4096 in
        (match Devmem.alloc m 4096 with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "should fit");
        match Devmem.alloc m 1 with
        | Ok _ -> Alcotest.fail "should be OOM"
        | Error `Out_of_memory -> ());
    Alcotest.test_case "coalescing enables big realloc" `Quick (fun () ->
        let m = Devmem.create 4096 in
        let a = Result.get_ok (Devmem.alloc m 1024) in
        let b = Result.get_ok (Devmem.alloc m 1024) in
        let c = Result.get_ok (Devmem.alloc m 1024) in
        let d = Result.get_ok (Devmem.alloc m 1024) in
        Devmem.free m b;
        Devmem.free m c;
        (* b and c coalesce into a 2048 hole. *)
        (match Devmem.alloc m 2048 with
        | Ok off -> Alcotest.(check int) "reused hole" 1024 off
        | Error _ -> Alcotest.fail "coalescing failed");
        Devmem.free m a;
        Devmem.free m d;
        Alcotest.(check bool) "invariants" true (Devmem.check_invariants m));
    Alcotest.test_case "free unknown offset rejected" `Quick (fun () ->
        let m = Devmem.create 4096 in
        Alcotest.check_raises "bad free"
          (Invalid_argument "Devmem.free: unknown offset") (fun () ->
            Devmem.free m 64));
    Alcotest.test_case "peak tracking" `Quick (fun () ->
        let m = Devmem.create 4096 in
        let a = Result.get_ok (Devmem.alloc m 2048) in
        Devmem.free m a;
        let _ = Result.get_ok (Devmem.alloc m 256) in
        Alcotest.(check int) "peak" 2048 (Devmem.peak_used m));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random alloc/free keeps invariants" ~count:200
         QCheck.(list (pair bool (int_range 1 8192)))
         (fun ops ->
           let m = Devmem.create (mib 1) in
           let live = ref [] in
           List.iter
             (fun (do_alloc, size) ->
               if do_alloc || !live = [] then begin
                 match Devmem.alloc m size with
                 | Ok off -> live := off :: !live
                 | Error `Out_of_memory -> ()
               end
               else
                 match !live with
                 | off :: rest ->
                     Devmem.free m off;
                     live := rest
                 | [] -> ())
             ops;
           Devmem.check_invariants m));
  ]

let mmio_tests =
  [
    Alcotest.test_case "write then read" `Quick (fun () ->
        let m = Mmio.create () in
        Mmio.write m ~addr:0x10 42L;
        Alcotest.(check int64) "value" 42L (Mmio.read m ~addr:0x10);
        Alcotest.(check int64) "unwritten reads 0" 0L (Mmio.read m ~addr:0x20);
        Alcotest.(check int) "accesses" 3 (Mmio.access_count m));
    Alcotest.test_case "native vs trapped port cost" `Quick (fun () ->
        let e = Engine.create () in
        let m = Mmio.create () in
        let timing = Timing.gtx1080 and virt = Timing.default_virt in
        let native = Mmio.native_port m ~timing in
        let trapped = Mmio.trapped_port m ~virt in
        Engine.run_process e (fun () ->
            let t0 = Engine.now e in
            native.Mmio.port_write ~addr:0 1L;
            let native_cost = Engine.now e - t0 in
            let t1 = Engine.now e in
            trapped.Mmio.port_write ~addr:0 1L;
            let trapped_cost = Engine.now e - t1 in
            Alcotest.(check int) "native cost" timing.Timing.mmio_write_ns
              native_cost;
            Alcotest.(check int) "trapped cost" virt.Timing.trap_ns
              trapped_cost;
            Alcotest.(check bool) "traps dominate" true
              (trapped_cost > 10 * native_cost)));
  ]

let dma_tests =
  [
    Alcotest.test_case "transfer duration" `Quick (fun () ->
        let e = Engine.create () in
        let dma = Dma.create ~setup_ns:(Time.us 2) ~bytes_per_s:1e9 () in
        Engine.run_process e (fun () ->
            Dma.transfer dma ~bytes:1_000_000);
        (* 2us setup + 1ms transfer *)
        Alcotest.(check int) "duration" (Time.us 1002) (Engine.now e);
        Alcotest.(check int) "bytes" 1_000_000 (Dma.bytes_moved dma);
        Alcotest.(check int) "count" 1 (Dma.transfers dma));
    Alcotest.test_case "per-page surcharge" `Quick (fun () ->
        let e = Engine.create () in
        let dma = Dma.create ~setup_ns:0 ~bytes_per_s:1e12 () in
        Engine.run_process e (fun () ->
            Dma.transfer ~per_page_ns:(Time.us 1) dma ~bytes:(4096 * 10));
        Alcotest.(check bool) "10 pages ~ 10us" true
          (Engine.now e >= Time.us 10));
    Alcotest.test_case "channels serialize" `Quick (fun () ->
        let e = Engine.create () in
        let dma = Dma.create ~channels:1 ~setup_ns:0 ~bytes_per_s:1e9 () in
        for _ = 1 to 3 do
          Engine.spawn e (fun () -> Dma.transfer dma ~bytes:1_000_000)
        done;
        Engine.run e;
        (* Three 1ms transfers back to back. *)
        Alcotest.(check int) "serialized" (Time.ms 3) (Engine.now e));
  ]

let gpu_tests =
  [
    Alcotest.test_case "kernel roofline duration" `Quick (fun () ->
        let timing = Timing.gtx1080 in
        let compute_bound =
          {
            Gpu.kernel_name = "c";
            work_items = 1_000_000;
            flops_per_item = 1000.0;
            bytes_per_item = 1.0;
            action = None;
          }
        in
        let d = Gpu.kernel_duration timing compute_bound in
        (* 1e9 flops / 8.9e12 = ~112us + 8us launch *)
        Alcotest.(check bool) "compute bound" true
          (d > Time.us 100 && d < Time.us 140);
        let memory_bound = { compute_bound with flops_per_item = 0.1; bytes_per_item = 1000.0 } in
        let d2 = Gpu.kernel_duration timing memory_bound in
        (* 1e9 bytes / 320e9 = ~3.1ms *)
        Alcotest.(check bool) "memory bound" true
          (d2 > Time.ms 3 && d2 < Time.us 3_300));
    Alcotest.test_case "submit executes in order" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Gpu.create e in
        let log = ref [] in
        Engine.spawn e (fun () ->
            let mk name =
              {
                Gpu.kernel_name = name;
                work_items = 1000;
                flops_per_item = 1.0;
                bytes_per_item = 0.0;
                action = Some (fun () -> log := name :: !log);
              }
            in
            let c1 = Gpu.submit gpu (mk "k1") in
            let c2 = Gpu.submit gpu (mk "k2") in
            Ivar.read c2.Gpu.done_;
            Alcotest.(check bool) "k1 done before k2" true
              (Ivar.is_filled c1.Gpu.done_));
        Engine.run ~until:(Time.s 1) e;
        Alcotest.(check (list string)) "order" [ "k1"; "k2" ] (List.rev !log);
        Alcotest.(check int) "count" 2 (Gpu.kernels_executed gpu));
    Alcotest.test_case "profiling timestamps are ordered" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Gpu.create e in
        Engine.spawn e (fun () ->
            Engine.delay (Time.us 5);
            let work =
              {
                Gpu.kernel_name = "k";
                work_items = 10_000;
                flops_per_item = 100.0;
                bytes_per_item = 8.0;
                action = None;
              }
            in
            let c = Gpu.submit gpu work in
            Ivar.read c.Gpu.done_;
            Alcotest.(check bool) "queued <= start" true
              (c.Gpu.queued_at <= c.Gpu.started_at);
            Alcotest.(check bool) "start < finish" true
              (c.Gpu.started_at < c.Gpu.finished_at));
        Engine.run ~until:(Time.s 1) e);
    Alcotest.test_case "buffer write/read preserves data" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Gpu.create e in
        Engine.spawn e (fun () ->
            let buf =
              match Gpu.create_buffer gpu ~size:1024 with
              | Ok b -> b
              | Error _ -> Alcotest.fail "OOM"
            in
            let src = Bytes.init 512 (fun i -> Char.chr (i land 0xff)) in
            Gpu.write_buffer gpu ~buf ~offset:100 ~src;
            let back = Gpu.read_buffer gpu ~buf ~offset:100 ~len:512 in
            Alcotest.(check bytes) "roundtrip" src back;
            Gpu.destroy_buffer gpu buf.Gpu.buf_id;
            Alcotest.(check int) "no live buffers" 0 (Gpu.live_buffers gpu));
        Engine.run ~until:(Time.s 1) e);
    Alcotest.test_case "buffer bounds checked" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Gpu.create e in
        Engine.spawn e (fun () ->
            let buf = Result.get_ok (Gpu.create_buffer gpu ~size:100) in
            Alcotest.check_raises "oob"
              (Invalid_argument "Gpu.write_buffer: out of range") (fun () ->
                Gpu.write_buffer gpu ~buf ~offset:90 ~src:(Bytes.create 20)));
        Engine.run ~until:(Time.s 1) e);
    Alcotest.test_case "device OOM surfaces" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Gpu.create ~timing:Timing.test_gpu e in
        match Gpu.create_buffer gpu ~size:(mib 65) with
        | Ok _ -> Alcotest.fail "should not fit in 64MiB"
        | Error `Out_of_memory -> ());
    Alcotest.test_case "busy time accumulates" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Gpu.create e in
        Engine.spawn e (fun () ->
            let work =
              {
                Gpu.kernel_name = "k";
                work_items = 1_000_000;
                flops_per_item = 100.0;
                bytes_per_item = 0.0;
                action = None;
              }
            in
            let c = Gpu.submit gpu work in
            Ivar.read c.Gpu.done_);
        Engine.run ~until:(Time.s 1) e;
        Alcotest.(check bool) "busy > 0" true (Gpu.busy_ns gpu > 0);
        Alcotest.(check bool) "busy <= elapsed" true
          (Gpu.busy_ns gpu <= Engine.now e));
  ]

let ncs_tests =
  [
    Alcotest.test_case "graph lifecycle" `Quick (fun () ->
        let e = Engine.create () in
        let ncs = Ncs.create e in
        Engine.run_process e (fun () ->
            let g =
              Ncs.load_graph ncs ~graph_bytes:(mib 1)
                ~layer_flops:[ 1e6; 2e6; 3e6 ]
            in
            Alcotest.(check int) "live" 1 (Ncs.live_graphs ncs);
            Alcotest.(check bool) "found" true
              (Ncs.find_graph ncs g.Ncs.graph_id <> None);
            Alcotest.(check bool) "unload ok" true
              (Ncs.unload_graph ncs g.Ncs.graph_id = Ok ());
            Alcotest.(check int) "gone" 0 (Ncs.live_graphs ncs);
            (* Unloading twice is an error status, not an exception. *)
            Alcotest.(check bool) "unload twice rejected" true
              (Ncs.unload_graph ncs g.Ncs.graph_id = Error `Unknown_graph));
        Alcotest.(check bool) "load took usb+parse time" true
          (Engine.now e > Time.ms 2));
    Alcotest.test_case "inference is deterministic" `Quick (fun () ->
        let e = Engine.create () in
        let ncs = Ncs.create e in
        let out1, out2 =
          Engine.run_process e (fun () ->
              let g =
                Ncs.load_graph ncs ~graph_bytes:1024
                  ~layer_flops:[ 1e6; 1e6 ]
              in
              let input = Bytes.of_string "hello inference" in
              let a = Ncs.infer ncs g ~input ~output_bytes:15 in
              let b = Ncs.infer ncs g ~input ~output_bytes:15 in
              (a, b))
        in
        Alcotest.(check bytes) "same output" out1 out2;
        Alcotest.(check bool) "output differs from input" true
          (not (Bytes.equal out1 (Bytes.of_string "hello inference"))));
    Alcotest.test_case "inference time scales with flops" `Quick (fun () ->
        let run layer_flops =
          let e = Engine.create () in
          let ncs = Ncs.create e in
          Engine.run_process e (fun () ->
              let g = Ncs.load_graph ncs ~graph_bytes:1024 ~layer_flops in
              ignore
                (Ncs.infer ncs g ~input:(Bytes.create 1000) ~output_bytes:10));
          Engine.now e
        in
        let small = run [ 1e6 ] and big = run [ 1e9 ] in
        Alcotest.(check bool) "big slower" true (big > small));
    Alcotest.test_case "stick serializes inferences" `Quick (fun () ->
        let e = Engine.create () in
        let ncs = Ncs.create e in
        let done_times = ref [] in
        let g = ref None in
        Engine.spawn e (fun () ->
            g := Some (Ncs.load_graph ncs ~graph_bytes:1024 ~layer_flops:[ 1e9 ]));
        Engine.run e;
        let graph = Option.get !g in
        for _ = 1 to 2 do
          Engine.spawn e (fun () ->
              ignore
                (Ncs.infer ncs graph ~input:(Bytes.create 100) ~output_bytes:10);
              done_times := Engine.now e :: !done_times)
        done;
        Engine.run e;
        match List.sort compare !done_times with
        | [ t1; t2 ] ->
            (* Second inference must wait for the first: 1e9/100e9 = 10ms each. *)
            Alcotest.(check bool) "serialized" true (t2 - t1 >= Time.ms 9)
        | _ -> Alcotest.fail "expected two completions");
  ]

let () =
  Alcotest.run "ava_device"
    [
      ("devmem", devmem_tests);
      ("mmio", mmio_tests);
      ("dma", dma_tests);
      ("gpu", gpu_tests);
      ("ncs", ncs_tests);
    ]
