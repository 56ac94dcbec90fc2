(* Tests for the hypervisor layer: VM accounting, attachment techniques
   and trap accounting. *)

open Ava_sim
open Ava_hv

let vm_tests =
  [
    Alcotest.test_case "accounting accumulates" `Quick (fun () ->
        let vm = Vm.create ~vm_id:1 ~name:"test" in
        Vm.charge_call vm;
        Vm.charge_call vm;
        Vm.charge_bytes vm 100;
        Vm.charge_device_time vm (Time.us 5);
        Alcotest.(check int) "calls" 2 (Vm.api_calls vm);
        Alcotest.(check int) "bytes" 100 (Vm.bytes_transferred vm);
        Alcotest.(check int) "device time" (Time.us 5) (Vm.device_time_ns vm);
        Alcotest.(check string) "pp" "vm1(test)" (Fmt.str "%a" Vm.pp vm));
  ]

let hypervisor_tests =
  [
    Alcotest.test_case "vm registry" `Quick (fun () ->
        let hv = Hypervisor.create () in
        let a = Hypervisor.create_vm hv ~name:"a" in
        let b = Hypervisor.create_vm hv ~name:"b" in
        Alcotest.(check int) "distinct ids" 1 (Vm.id b - Vm.id a);
        Alcotest.(check int) "two vms" 2 (List.length (Hypervisor.vms hv));
        Alcotest.(check bool) "find" true
          (Hypervisor.find_vm hv (Vm.id a) = Some a);
        Alcotest.(check bool) "missing" true
          (Hypervisor.find_vm hv 999 = None));
    Alcotest.test_case "full-virt attachment counts traps" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Ava_device.Gpu.create e in
        let hv = Hypervisor.create () in
        let kd = Hypervisor.attach_fullvirt hv gpu in
        Engine.spawn e (fun () ->
            let work =
              {
                Ava_device.Gpu.kernel_name = "k";
                work_items = 1024;
                flops_per_item = 1.0;
                bytes_per_item = 0.0;
                action = None;
              }
            in
            let c = Ava_simcl.Kdriver.submit kd work in
            Ava_simcl.Kdriver.wait kd c);
        Engine.run e;
        (* 16 descriptor words + 3 registers per submission. *)
        Alcotest.(check int) "traps" 19 (Hypervisor.traps hv));
    Alcotest.test_case "passthrough never traps" `Quick (fun () ->
        let e = Engine.create () in
        let gpu = Ava_device.Gpu.create e in
        let hv = Hypervisor.create () in
        let kd = Hypervisor.attach_passthrough hv gpu in
        Engine.spawn e (fun () ->
            let work =
              {
                Ava_device.Gpu.kernel_name = "k";
                work_items = 1024;
                flops_per_item = 1.0;
                bytes_per_item = 0.0;
                action = None;
              }
            in
            let c = Ava_simcl.Kdriver.submit kd work in
            Ava_simcl.Kdriver.wait kd c);
        Engine.run e;
        Alcotest.(check int) "no traps" 0 (Hypervisor.traps hv));
    Alcotest.test_case "trapped submissions are much slower" `Quick
      (fun () ->
        let submit_time attach =
          let e = Engine.create () in
          let gpu = Ava_device.Gpu.create e in
          let hv = Hypervisor.create () in
          let kd = attach hv gpu in
          let elapsed = ref 0 in
          Engine.spawn e (fun () ->
              let t0 = Engine.now e in
              let work =
                {
                  Ava_device.Gpu.kernel_name = "k";
                  work_items = 16;
                  flops_per_item = 1.0;
                  bytes_per_item = 0.0;
                  action = None;
                }
              in
              let c = Ava_simcl.Kdriver.submit kd work in
              ignore c;
              elapsed := Engine.now e - t0);
          Engine.run e;
          !elapsed
        in
        let fast = submit_time Hypervisor.attach_passthrough in
        let slow = submit_time Hypervisor.attach_fullvirt in
        Alcotest.(check bool) "at least 10x slower" true (slow > 10 * fast));
  ]

let () =
  Alcotest.run "ava_hv"
    [ ("vm", vm_tests); ("hypervisor", hypervisor_tests) ]
