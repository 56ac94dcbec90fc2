(* Tests for the API-agnostic remoting runtime: wire codec, message
   frames, transports, policies, stub/server plumbing, the object
   recorder and the swap manager. *)

module Wire = Ava_remoting.Wire
module Message = Ava_remoting.Message
module Policy = Ava_remoting.Policy
module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Router = Ava_remoting.Router
module Migrate = Ava_remoting.Migrate
module Swap = Ava_remoting.Swap
module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport

open Ava_sim

(* QCheck generator for wire values. *)
let value_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [
        return Wire.Unit;
        map (fun n -> Wire.I64 (Int64.of_int n)) int;
        map (fun f -> Wire.F64 f) (float_bound_inclusive 1e12);
        map (fun s -> Wire.Str s) (string_size (0 -- 64));
        map (fun s -> Wire.Blob (Bytes.of_string s)) (string_size (0 -- 256));
        map (fun n -> Wire.Handle (Int64.of_int n)) nat;
        map
          (fun (d, n) ->
            Wire.Blob_ref { br_digest = Int64.of_int d; br_size = n })
          (pair int nat);
        map
          (fun s ->
            let b = Bytes.of_string s in
            Wire.Blob_cached { bc_digest = Wire.digest b; bc_data = b })
          (string_size (0 -- 256));
        (* Any (iova, size) inside the window — offsets up to 1 GiB with
           sizes up to 16 MiB stay well below [iova_limit]. *)
        map
          (fun (off, n) ->
            Wire.Mapped_ref
              {
                mr_iova = Int64.add Ava_device.Iommu.iova_base (Int64.of_int off);
                mr_size = n;
              })
          (pair (int_bound 0x4000_0000) (int_bound 0x100_0000));
      ]
  in
  sized (fun n ->
      if n < 2 then base
      else
        frequency
          [
            (4, base);
            (1, map (fun vs -> Wire.List vs) (list_size (0 -- 5) base));
          ])

let value_arb = QCheck.make ~print:(Fmt.str "%a" Wire.pp) value_gen

let wire_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500
         (QCheck.list_of_size (QCheck.Gen.int_range 0 10) value_arb)
         (fun values ->
           match Wire.decode (Wire.encode values) with
           | Ok decoded ->
               List.length decoded = List.length values
               && List.for_all2 Wire.equal decoded values
           | Error _ -> false));
    Alcotest.test_case "corrupt data rejected, never crashes" `Quick
      (fun () ->
        let data = Wire.encode [ Wire.Str "hello"; Wire.int 42 ] in
        for cut = 0 to Bytes.length data - 1 do
          match Wire.decode (Bytes.sub data 0 cut) with
          | Ok _ when cut = Bytes.length data -> ()
          | Ok _ -> Alcotest.failf "truncation to %d accepted" cut
          | Error _ -> ()
        done;
        (* Bit flips in the tag byte. *)
        let mangled = Bytes.copy data in
        Bytes.set mangled 4 '\255';
        match Wire.decode mangled with
        | Ok _ -> Alcotest.fail "bad tag accepted"
        | Error _ -> ());
    Alcotest.test_case "encoded_size matches encoding overhead order"
      `Quick (fun () ->
        let v = Wire.Blob (Bytes.create 1000) in
        Alcotest.(check int) "blob size" 1005 (Wire.encoded_size v));
    Alcotest.test_case "mapped ref is 13 bytes regardless of payload size"
      `Quick (fun () ->
        let v =
          Wire.Mapped_ref
            { mr_iova = Ava_device.Iommu.iova_base; mr_size = 64 * 1024 * 1024 }
        in
        Alcotest.(check int) "fixed size" 13 (Wire.encoded_size v);
        (* 4-byte count prefix + tag + iova + size on the wire too. *)
        Alcotest.(check int) "framed size" 17 (Bytes.length (Wire.encode [ v ])));
    Alcotest.test_case "out-of-window IOVA rejected at decode" `Quick
      (fun () ->
        let expect_error what v =
          (* Encode never validates (the sender owns its refs); the trust
             boundary is decode on the receiving side. *)
          match Wire.decode (Wire.encode [ v ]) with
          | Ok _ -> Alcotest.failf "%s accepted" what
          | Error e ->
              Alcotest.(check bool)
                (what ^ " names the IOVA check")
                true
                (String.length e > 0)
        in
        expect_error "iova below the window"
          (Wire.Mapped_ref
             {
               mr_iova = Int64.sub Ava_device.Iommu.iova_base 1L;
               mr_size = 16;
             });
        expect_error "iova past the window"
          (Wire.Mapped_ref { mr_iova = Ava_device.Iommu.iova_limit; mr_size = 1 });
        expect_error "size overruns the window limit"
          (Wire.Mapped_ref
             {
               mr_iova = Int64.sub Ava_device.Iommu.iova_limit 4096L;
               mr_size = 8192;
             });
        (* The boundary cases stay valid: base itself, and a ref ending
           exactly at the limit. *)
        List.iter
          (fun v ->
            match Wire.decode (Wire.encode [ v ]) with
            | Ok [ d ] ->
                Alcotest.(check bool) "roundtrips" true (Wire.equal v d)
            | Ok _ -> Alcotest.fail "wrong arity"
            | Error e -> Alcotest.failf "valid ref rejected: %s" e)
          [
            Wire.Mapped_ref
              { mr_iova = Ava_device.Iommu.iova_base; mr_size = 4096 };
            Wire.Mapped_ref
              {
                mr_iova = Int64.sub Ava_device.Iommu.iova_limit 4096L;
                mr_size = 4096;
              };
          ]);
    Alcotest.test_case "truncated mapped-ref frame is an error, not a raise"
      `Quick (fun () ->
        let data =
          Wire.encode
            [
              Wire.Mapped_ref
                { mr_iova = Ava_device.Iommu.iova_base; mr_size = 4096 };
            ]
        in
        for cut = 0 to Bytes.length data - 1 do
          match Wire.decode (Bytes.sub data 0 cut) with
          | Ok _ -> Alcotest.failf "truncation to %d accepted" cut
          | Error _ -> ()
          | exception e ->
              Alcotest.failf "truncation to %d raised %s" cut
                (Printexc.to_string e)
        done);
    (* Regression: decode built lists with [List.init n (fun _ -> value ())],
       whose evaluation order is unspecified — nested collections could
       come back permuted.  Pin the order with a mixed nested value. *)
    Alcotest.test_case "nested lists decode in order" `Quick (fun () ->
        let values =
          [
            Wire.Str "head";
            Wire.List
              [
                Wire.Str "a";
                Wire.Blob (Bytes.of_string "bb");
                Wire.List [ Wire.int 1; Wire.Str "c"; Wire.int 2 ];
                Wire.Blob (Bytes.of_string "dddd");
                Wire.Str "e";
              ];
            Wire.List [ Wire.Str "x"; Wire.Str "y"; Wire.Str "z" ];
            Wire.Str "tail";
          ]
        in
        match Wire.decode (Wire.encode values) with
        | Error e -> Alcotest.failf "decode failed: %s" e
        | Ok decoded ->
            Alcotest.(check int) "arity" 4 (List.length decoded);
            List.iter2
              (fun expect got ->
                Alcotest.(check bool)
                  (Fmt.str "%a" Wire.pp expect)
                  true (Wire.equal expect got))
              values decoded;
            (match List.nth decoded 2 with
            | Wire.List [ Wire.Str x; Wire.Str y; Wire.Str z ] ->
                Alcotest.(check (list string))
                  "inner order" [ "x"; "y"; "z" ] [ x; y; z ]
            | v -> Alcotest.failf "unexpected shape: %a" Wire.pp v));
    (* Regression: [to_int] silently wrapped int64s outside the native
       (63-bit) int range through [Int64.to_int]. *)
    Alcotest.test_case "to_int refuses out-of-range int64" `Quick (fun () ->
        Alcotest.(check (option int))
          "max_int64" None
          (Wire.to_int (Wire.I64 Int64.max_int));
        Alcotest.(check (option int))
          "min_int64" None
          (Wire.to_int (Wire.I64 Int64.min_int));
        Alcotest.(check (option int))
          "oversized handle" None
          (Wire.to_int (Wire.Handle Int64.max_int));
        Alcotest.(check (option int))
          "native max fits" (Some max_int)
          (Wire.to_int (Wire.I64 (Int64.of_int max_int)));
        Alcotest.(check (option int))
          "native min fits" (Some min_int)
          (Wire.to_int (Wire.I64 (Int64.of_int min_int)));
        Alcotest.(check (option int)) "small" (Some 42)
          (Wire.to_int (Wire.int 42)));
    Alcotest.test_case "blob_ref and blob_cached roundtrip" `Quick (fun () ->
        let payload = Bytes.of_string "content-addressed payload" in
        let d = Wire.digest payload in
        let values =
          [
            Wire.Blob_ref { br_digest = d; br_size = Bytes.length payload };
            Wire.Blob_cached { bc_digest = d; bc_data = payload };
          ]
        in
        match Wire.decode (Wire.encode values) with
        | Ok decoded ->
            Alcotest.(check bool) "equal" true
              (List.for_all2 Wire.equal values decoded);
            Alcotest.(check int) "ref is 13 bytes + tag/length overhead"
              13
              (Wire.encoded_size (List.hd values))
        | Error e -> Alcotest.failf "decode failed: %s" e);
    Alcotest.test_case "digest is deterministic and content-sensitive"
      `Quick (fun () ->
        let a = Bytes.make 4096 '\000' in
        let b = Bytes.make 4096 '\000' in
        Alcotest.(check bool) "same content, same digest" true
          (Int64.equal (Wire.digest a) (Wire.digest b));
        Bytes.set b 4095 '\001';
        Alcotest.(check bool) "one flipped byte, new digest" false
          (Int64.equal (Wire.digest a) (Wire.digest b)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"encode is presized: 4 + sum of encoded_size"
         ~count:500
         (QCheck.list_of_size (QCheck.Gen.int_range 0 10) value_arb)
         (fun values ->
           Bytes.length (Wire.encode values)
           = List.fold_left (fun acc v -> acc + Wire.encoded_size v) 4 values));
  ]

(* Golden frames: every [Message] constructor and, across them, every
   [Wire] tag.  The hex was produced by the [Buffer]-based encoder the
   presized one replaced; the wire format must not move by a byte. *)
let golden_messages =
  let call_a =
    {
      Message.call_seq = 7;
      call_vm = 2;
      call_fn = "clEnqueueWriteBuffer";
      call_args =
        [
          Wire.Unit;
          Wire.I64 (-5L);
          Wire.F64 1.5;
          Wire.Str "abc";
          Wire.Blob (Bytes.of_string "\x00\x01\xff");
          Wire.Handle 4097L;
          Wire.List [ Wire.int 1; Wire.List [ Wire.Str "x"; Wire.Unit ] ];
          Wire.Blob_cached
            { bc_digest = 0x1122334455667788L; bc_data = Bytes.of_string "hi" };
          Wire.Blob_ref { br_digest = -2L; br_size = 4096 };
          Wire.Mapped_ref
            {
              mr_iova = Int64.add Ava_device.Iommu.iova_base 0x1000L;
              mr_size = 64;
            };
        ];
    }
  in
  let call_b =
    {
      Message.call_seq = 8;
      call_vm = 2;
      call_fn = "clFlush";
      call_args = [ Wire.Handle 4098L; Wire.Blob (Bytes.of_string "payload") ];
    }
  in
  [
    ("call", Message.Call call_a);
    ( "reply",
      Message.Reply
        {
          reply_seq = 7;
          reply_status = 0;
          reply_ret = Wire.Handle 9L;
          reply_outs = [ Wire.Blob (Bytes.of_string "out"); Wire.int 3 ];
        } );
    ( "reply-error",
      Message.Reply
        { reply_seq = 8; reply_status = -5; reply_ret = Wire.Unit; reply_outs = [] }
    );
    ("batch", Message.Batch [ call_a; call_b ]);
    ( "upcall",
      Message.Upcall
        {
          up_vm = 1;
          up_cb = 3;
          up_args = [ Wire.Str "evt"; Wire.Blob (Bytes.of_string "zz") ];
        } );
    ("skip", Message.Skip { skip_vm = 4; skip_seqs = [ 1; 2; 9 ] });
    ( "nak",
      Message.Nak { nak_vm = 1; nak_seq = 5; nak_digests = [ 0xdeadbeefL; -1L ] }
    );
  ]

let golden_hex =
  [
    ("call",
     "0e0000000301000000430107000000000000000102000000000000000314000000636c456e717565756557726974654275666665720001fbffffffffffffff02000000000000f83f030300000061626304030000000001ff050110000000000000060200000001010000000000000006020000000301000000780008887766554433221102000000686907feffffffffffffff0010000009001000000100000040000000");
    ("reply",
     "0600000003010000005201070000000000000001000000000000000005090000000000000004030000006f7574010300000000000000");
    ("reply-error",
     "0400000003010000005201080000000000000001fbffffffffffffff00");
    ("batch",
     "0300000003010000004704a40000000e0000000301000000430107000000000000000102000000000000000314000000636c456e717565756557726974654275666665720001fbffffffffffffff02000000000000f83f030300000061626304030000000001ff050110000000000000060200000001010000000000000006020000000301000000780008887766554433221102000000686907feffffffffffffff0010000009001000000100000040000000043d000000060000000301000000430108000000000000000102000000000000000307000000636c466c75736805021000000000000004070000007061796c6f6164");
    ("upcall",
     "05000000030100000055010100000000000000010300000000000000030300000065767404020000007a7a");
    ("skip",
     "05000000030100000053010400000000000000010100000000000000010200000000000000010900000000000000");
    ("nak",
     "0500000003010000004e01010000000000000001050000000000000001efbeadde0000000001ffffffffffffffff");
  ]

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let call_gen =
  let open QCheck.Gen in
  map
    (fun (seq, vm, fn, args) ->
      { Message.call_seq = seq; call_vm = vm; call_fn = fn; call_args = args })
    (quad int int (string_size (0 -- 16)) (list_size (0 -- 6) value_gen))

let message_gen =
  let open QCheck.Gen in
  let ints = list_size (0 -- 6) int in
  oneof
    [
      map (fun c -> Message.Call c) call_gen;
      map
        (fun (seq, status, ret, outs) ->
          Message.Reply
            { reply_seq = seq; reply_status = status; reply_ret = ret;
              reply_outs = outs })
        (quad int int value_gen (list_size (0 -- 4) value_gen));
      map (fun cs -> Message.Batch cs) (list_size (0 -- 4) call_gen);
      map
        (fun (vm, cb, args) ->
          Message.Upcall { up_vm = vm; up_cb = cb; up_args = args })
        (triple int int (list_size (0 -- 4) value_gen));
      map
        (fun (vm, seqs) -> Message.Skip { skip_vm = vm; skip_seqs = seqs })
        (pair int ints);
      map
        (fun (vm, seq, ds) ->
          Message.Nak
            { nak_vm = vm; nak_seq = seq;
              nak_digests = List.map Int64.of_int ds })
        (triple int int ints);
    ]

let message_arb = QCheck.make ~print:(Fmt.str "%a" Message.pp) message_gen

(* One mutation of an encoded frame: a byte flip, a truncation or
   appended bytes. *)
let mutated_frame_gen =
  let open QCheck.Gen in
  message_gen >>= fun m ->
  let data = Message.encode m in
  let len = Bytes.length data in
  oneof
    [
      map
        (fun (i, x) ->
          let d = Bytes.copy data in
          let i = i mod len in
          Bytes.set d i (Char.chr (Char.code (Bytes.get d i) lxor (1 + x)));
          d)
        (pair nat (int_bound 254));
      map (fun cut -> Bytes.sub data 0 (cut mod len)) nat;
      map
        (fun s -> Bytes.cat data (Bytes.of_string s))
        (string_size (1 -- 16));
    ]

let mutated_arb =
  QCheck.make
    ~print:(fun b -> Printf.sprintf "%d bytes: %s" (Bytes.length b) (hex b))
    mutated_frame_gen

(* [Message.encode] writes Call, Reply and Batch headers in place; this
   is the generic value list those bytes must equal. *)
let call_values (c : Message.call) =
  Wire.Str "C" :: Wire.int c.Message.call_seq :: Wire.int c.Message.call_vm
  :: Wire.Str c.Message.call_fn :: c.Message.call_args

let generic_values = function
  | Message.Call c -> call_values c
  | Message.Reply r ->
      Wire.Str "R" :: Wire.int r.Message.reply_seq
      :: Wire.int r.Message.reply_status :: r.Message.reply_ret
      :: r.Message.reply_outs
  | Message.Batch cs ->
      Wire.Str "G"
      :: List.map (fun c -> Wire.Blob (Wire.encode (call_values c))) cs
  | Message.Upcall u ->
      Wire.Str "U" :: Wire.int u.Message.up_vm :: Wire.int u.Message.up_cb
      :: u.Message.up_args
  | Message.Skip s ->
      Wire.Str "S" :: Wire.int s.Message.skip_vm
      :: List.map Wire.int s.Message.skip_seqs
  | Message.Nak n ->
      Wire.Str "N" :: Wire.int n.Message.nak_vm :: Wire.int n.Message.nak_seq
      :: List.map (fun d -> Wire.I64 d) n.Message.nak_digests

(* One cursor for every frame the properties read, as the router reuses
   one: state left by an earlier frame must never leak into a later
   read. *)
let shared_cursor = Message.cursor ()

(* The cursor's verdict is [decode]'s; on [Ok] its kind, member calls
   (seq, vm, fn, arity, scalar view, sub-frame span) and reply header
   are [decode]'s too.  A raise fails the property. *)
let cursor_agrees data =
  let cu = shared_cursor in
  let member_agrees i (c : Message.call) =
    let args = Array.of_list c.Message.call_args in
    let n = Array.length args in
    let sv = Message.scalars cu i in
    Message.seq cu i = c.Message.call_seq
    && Message.vm cu i = c.Message.call_vm
    && String.equal (Message.fn cu i) c.Message.call_fn
    && Message.arity cu i = n
    && List.for_all
         (fun j ->
           Plan.scalar_at sv j = if j < n then Wire.to_int args.(j) else None)
         (List.init (n + 2) Fun.id)
    && Bytes.equal
         (Bytes.sub data (Message.member_off cu i) (Message.member_len cu i))
         (Message.encode (Message.Call c))
  in
  match (Message.decode data, Message.read cu data) with
  | Error _, Error _ -> Message.members cu = 0
  | Ok (Message.Call c), Ok Message.K_call ->
      Message.members cu = 1 && member_agrees 0 c
  | Ok (Message.Batch cs), Ok Message.K_batch ->
      Message.members cu = List.length cs
      && List.for_all Fun.id (List.mapi member_agrees cs)
  | Ok (Message.Reply r), Ok Message.K_reply ->
      Message.members cu = 0
      && Message.reply_seq cu = r.Message.reply_seq
      && Message.reply_status cu = r.Message.reply_status
  | Ok (Message.Upcall _), Ok Message.K_upcall
  | Ok (Message.Skip _), Ok Message.K_skip
  | Ok (Message.Nak _), Ok Message.K_nak ->
      Message.members cu = 0
  | _ -> false

(* Minor-heap words one call of [f] allocates, averaged over many calls
   after a warm-up call (which may intern a name or grow a column). *)
let words_per_op f =
  let n = 1000 in
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_budget what words bound =
  if words > bound then
    Alcotest.failf "%s: %.2f words allocated, budget %.1f" what words bound

let message_tests =
  [
    Alcotest.test_case "call frame roundtrip" `Quick (fun () ->
        let c =
          Message.Call
            {
              call_seq = 7;
              call_vm = 3;
              call_fn = "clFinish";
              call_args = [ Wire.Handle 4097L ];
            }
        in
        match Message.decode (Message.encode c) with
        | Ok (Message.Call c') ->
            Alcotest.(check int) "seq" 7 c'.Message.call_seq;
            Alcotest.(check int) "vm" 3 c'.Message.call_vm;
            Alcotest.(check string) "fn" "clFinish" c'.Message.call_fn
        | _ -> Alcotest.fail "roundtrip failed");
    Alcotest.test_case "reply frame roundtrip" `Quick (fun () ->
        let r =
          Message.Reply
            {
              reply_seq = 9;
              reply_status = -30;
              reply_ret = Wire.int 0;
              reply_outs = [ Wire.Blob (Bytes.make 8 'x') ];
            }
        in
        match Message.decode (Message.encode r) with
        | Ok (Message.Reply r') ->
            Alcotest.(check int) "status" (-30) r'.Message.reply_status;
            Alcotest.(check int) "outs" 1 (List.length r'.Message.reply_outs)
        | _ -> Alcotest.fail "roundtrip failed");
    Alcotest.test_case "garbage frame rejected" `Quick (fun () ->
        match Message.decode (Wire.encode [ Wire.int 1 ]) with
        | Ok _ -> Alcotest.fail "accepted"
        | Error _ -> ());
    Alcotest.test_case "nak frame roundtrip" `Quick (fun () ->
        let n =
          Message.Nak
            {
              nak_vm = 3;
              nak_seq = 41;
              nak_digests = [ 0xdeadbeefL; Int64.min_int; 0L ];
            }
        in
        match Message.decode (Message.encode n) with
        | Ok (Message.Nak n') ->
            Alcotest.(check int) "vm" 3 n'.Message.nak_vm;
            Alcotest.(check int) "seq" 41 n'.Message.nak_seq;
            Alcotest.(check bool) "digests" true
              (List.for_all2 Int64.equal
                 [ 0xdeadbeefL; Int64.min_int; 0L ]
                 n'.Message.nak_digests)
        | _ -> Alcotest.fail "roundtrip failed");
    Alcotest.test_case "nak with no digests roundtrips" `Quick (fun () ->
        let n = Message.Nak { nak_vm = 0; nak_seq = 0; nak_digests = [] } in
        match Message.decode (Message.encode n) with
        | Ok (Message.Nak n') ->
            Alcotest.(check int) "empty" 0 (List.length n'.Message.nak_digests)
        | _ -> Alcotest.fail "roundtrip failed");
    Alcotest.test_case "encoder reproduces the golden frames" `Quick
      (fun () ->
        List.iter
          (fun (name, m) ->
            let expected = List.assoc name golden_hex in
            Alcotest.(check string) name expected (hex (Message.encode m));
            match Message.decode (Message.encode m) with
            | Ok m' ->
                Alcotest.(check string)
                  (name ^ " re-encodes") expected (hex (Message.encode m'))
            | Error e -> Alcotest.failf "%s: %s" name e)
          golden_messages;
        (* The stub builds batches from already encoded call frames. *)
        match List.assoc "batch" golden_messages with
        | Message.Batch calls ->
            Alcotest.(check string)
              "batch from frames" (List.assoc "batch" golden_hex)
              (hex
                 (Message.batch_of_frames
                    (List.map (fun c -> Message.encode (Message.Call c)) calls)))
        | _ -> assert false);
    (* Regression: seqs went through an unchecked [Int64.to_int], so a
       forged [Int64.min_int] seq decoded as seq 0 and aliased a live
       call. *)
    Alcotest.test_case "out-of-range seq is an error, not wrapped" `Quick
      (fun () ->
        let beyond = Int64.add (Int64.of_int max_int) 1L in
        List.iter
          (fun (what, frame) ->
            (match Message.decode frame with
            | Ok m -> Alcotest.failf "decode accepted %s as %a" what Message.pp m
            | Error _ -> ());
            match Message.read (Message.cursor ()) frame with
            | Ok _ -> Alcotest.failf "cursor accepted %s" what
            | Error _ -> ())
          [
            ( "call seq min_int",
              Wire.encode
                [ Wire.Str "C"; Wire.I64 Int64.min_int; Wire.int 1; Wire.Str "f" ]
            );
            ( "call seq max_int + 1",
              Wire.encode [ Wire.Str "C"; Wire.I64 beyond; Wire.int 1; Wire.Str "f" ]
            );
            ( "reply seq min_int",
              Wire.encode
                [ Wire.Str "R"; Wire.I64 Int64.min_int; Wire.int 0; Wire.Unit ] );
            ( "reply seq max_int + 1",
              Wire.encode [ Wire.Str "R"; Wire.I64 beyond; Wire.int 0; Wire.Unit ]
            );
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cursor agrees with decode on valid frames"
         ~count:500 message_arb (fun m -> cursor_agrees (Message.encode m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cursor and decode reject the same mutated frames"
         ~count:2000 mutated_arb cursor_agrees);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"in-place headers equal the generic encoding"
         ~count:500 message_arb (fun m ->
           Bytes.equal (Message.encode m) (Wire.encode (generic_values m))));
    Alcotest.test_case "allocation budget: policing a scalar-only call" `Quick
      (fun () ->
        let plans =
          Result.get_ok (Plan.compile (Ava_spec.Specs.load_simcl ()))
        in
        (* As [Router.create] does: the plan's names read back interned. *)
        Wire.intern_plan plans;
        let plan = Plan.find_exn plans "clEnqueueNDRangeKernel" in
        let frame =
          Message.encode
            (Message.Call
               { call_seq = 7; call_vm = 2; call_fn = "clEnqueueNDRangeKernel";
                 call_args =
                   [ Wire.Handle 4097L; Wire.Handle 4098L; Wire.int 4096;
                     Wire.int 64; Wire.int 0; Wire.List []; Wire.Handle 0x100001L ] })
        in
        let cu = Message.cursor () in
        Alcotest.(check bool) "cost reads global_work_size" true
          (Message.read cu frame = Ok Message.K_call
          && Plan.call_cost plan (Message.scalars cu 0) = 4096.0);
        let words =
          words_per_op (fun () ->
              match Message.read cu frame with
              | Ok _ -> ignore (Plan.call_cost plan (Message.scalars cu 0))
              | Error _ -> assert false)
        in
        (* The cost comes back as one boxed float (2 words); the read
           itself allocates nothing. *)
        check_budget "words per policed call" words 3.0);
    Alcotest.test_case "only a plan's names are interned" `Quick (fun () ->
        let plans =
          Result.get_ok (Plan.compile (Ava_spec.Specs.load_simcl ()))
        in
        Wire.intern_plan plans;
        let call fn =
          Message.encode
            (Message.Call
               { call_seq = 1; call_vm = 1; call_fn = fn; call_args = [] })
        in
        let cu = Message.cursor () in
        let read frame =
          match Message.read cu frame with
          | Ok Message.K_call -> Message.fn cu 0
          | _ -> Alcotest.fail "not a call"
        in
        let known = call "clEnqueueNDRangeKernel" in
        Alcotest.(check bool) "a plan name reads back shared" true
          (read known == read known);
        (* A forged name, long and read many times, is never kept: each
           read is a fresh copy, so the table did not take it in. *)
        let forged = call (String.make 100_000 'f') in
        let first = read forged in
        for _ = 1 to 5000 do
          ignore (read forged)
        done;
        let last = read forged in
        Alcotest.(check bool) "the forged name reads intact" true
          (String.equal first last && String.length last = 100_000);
        Alcotest.(check bool) "a forged name is not interned" false
          (first == last));
    Alcotest.test_case "allocation budget: the egress reply check" `Quick
      (fun () ->
        let frame =
          Message.encode
            (Message.Reply
               { reply_seq = 9; reply_status = 0; reply_ret = Wire.Handle 4098L;
                 reply_outs = [ Wire.int 3; Wire.Blob (Bytes.make 64 'x') ] })
        in
        let cu = Message.cursor () in
        let words =
          words_per_op (fun () ->
              match Message.read cu frame with
              | Ok _ -> ignore (Message.reply_seq cu + Message.reply_status cu)
              | Error _ -> assert false)
        in
        check_budget "words per reply check" words 0.5);
    Alcotest.test_case "allocation budget: encoding a small call and reply"
      `Quick (fun () ->
        let call =
          Message.Call
            { call_seq = 70000; call_vm = 3; call_fn = "clEnqueueNDRangeKernel";
              call_args = [ Wire.Handle 4097L; Wire.int 5; Wire.Unit ] }
        and reply =
          Message.Reply
            { reply_seq = 70000; reply_status = 0; reply_ret = Wire.int 0;
              reply_outs = [] }
        in
        List.iter
          (fun (what, m) ->
            let frame_words =
              (* A [bytes] of n bytes: a header word plus n + 1 bytes
                 rounded up to words. *)
              float_of_int (1 + ((Bytes.length (Message.encode m) + 8) / 8))
            in
            let words = words_per_op (fun () -> ignore (Message.encode m)) in
            check_budget what words (frame_words +. 2.0))
          [ ("words per call encode", call); ("words per reply encode", reply) ]);
  ]

let transport_tests =
  [
    Alcotest.test_case "messages arrive in order with latency" `Quick
      (fun () ->
        let e = Engine.create () in
        let virt = Ava_device.Timing.default_virt in
        let a, b = Transport.shm_ring e ~virt in
        let got = ref [] in
        Engine.spawn e (fun () ->
            for i = 1 to 5 do
              Transport.send a (Bytes.make i 'm')
            done);
        Engine.spawn e (fun () ->
            for _ = 1 to 5 do
              got := Bytes.length (Transport.recv b) :: !got
            done);
        Engine.run e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !got);
        Alcotest.(check bool) "notify latency charged" true
          (Engine.now e >= virt.Ava_device.Timing.ring_notify_ns);
        let stats = Transport.stats a in
        Alcotest.(check int) "sent" 5 stats.Transport.sent_msgs;
        Alcotest.(check int) "bytes" 15 stats.Transport.sent_bytes);
    Alcotest.test_case "bandwidth cost scales with size" `Quick (fun () ->
        let run bytes =
          let e = Engine.create () in
          let virt = Ava_device.Timing.default_virt in
          let a, b = Transport.network e ~virt in
          Engine.spawn e (fun () -> Transport.send a (Bytes.create bytes));
          Engine.spawn e (fun () -> ignore (Transport.recv b));
          Engine.run e;
          Engine.now e
        in
        Alcotest.(check bool) "1MB slower than 1KB" true
          (run 1_000_000 > run 1_000 + Time.us 100));
    Alcotest.test_case "duplex is independent per direction" `Quick
      (fun () ->
        let e = Engine.create () in
        let a, b = Transport.direct e in
        Engine.spawn e (fun () ->
            Transport.send a (Bytes.of_string "ping");
            let pong = Transport.recv a in
            Alcotest.(check string) "pong" "pong" (Bytes.to_string pong));
        Engine.spawn e (fun () ->
            let ping = Transport.recv b in
            Alcotest.(check string) "ping" "ping" (Bytes.to_string ping);
            Transport.send b (Bytes.of_string "pong"));
        Engine.run e);
  ]

let transport_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"any message sequence survives any transport"
         ~count:60
         QCheck.(
           pair (int_range 0 3)
             (list_of_size Gen.(1 -- 30) (string_of_size Gen.(0 -- 200))))
         (fun (kind_idx, msgs) ->
           let kind =
             List.nth
               [
                 Transport.Direct; Transport.Shm_ring; Transport.User_rpc;
                 Transport.Network;
               ]
               kind_idx
           in
           let e = Engine.create () in
           let virt = Ava_device.Timing.default_virt in
           let a, b = Transport.make kind e ~virt in
           let got = ref [] in
           Engine.spawn e (fun () ->
               List.iter (fun m -> Transport.send a (Bytes.of_string m)) msgs);
           Engine.spawn e (fun () ->
               for _ = 1 to List.length msgs do
                 got := Bytes.to_string (Transport.recv b) :: !got
               done);
           Engine.run e;
           List.rev !got = msgs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"concurrent bidirectional traffic never interferes" ~count:30
         QCheck.(int_range 1 20)
         (fun n ->
           let e = Engine.create () in
           let virt = Ava_device.Timing.default_virt in
           let a, b = Transport.shm_ring e ~virt in
           let a_got = ref 0 and b_got = ref 0 in
           Engine.spawn e (fun () ->
               for i = 1 to n do
                 Transport.send a (Bytes.make i 'a')
               done;
               for _ = 1 to n do
                 ignore (Transport.recv a);
                 incr a_got
               done);
           Engine.spawn e (fun () ->
               for i = 1 to n do
                 Transport.send b (Bytes.make i 'b')
               done;
               for _ = 1 to n do
                 ignore (Transport.recv b);
                 incr b_got
               done);
           Engine.run e;
           !a_got = n && !b_got = n));
  ]

let policy_tests =
  [
    Alcotest.test_case "token bucket enforces long-run rate" `Quick (fun () ->
        let e = Engine.create () in
        Engine.run_process e (fun () ->
            let b =
              Policy.Token_bucket.create e ~rate_per_s:1000.0 ~burst:10.0
            in
            for _ = 1 to 110 do
              Policy.Token_bucket.take b 1.0
            done);
        (* 110 tokens with 10 burst at 1000/s: at least 100ms. *)
        Alcotest.(check bool) "took >= 99ms" true (Engine.now e >= Time.ms 99));
    Alcotest.test_case "bucket burst is free" `Quick (fun () ->
        let e = Engine.create () in
        Engine.run_process e (fun () ->
            let b =
              Policy.Token_bucket.create e ~rate_per_s:10.0 ~burst:32.0
            in
            for _ = 1 to 32 do
              Policy.Token_bucket.take b 1.0
            done);
        Alcotest.(check int) "instant" 0 (Engine.now e));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"wfq never starves and respects FIFO per flow"
         ~count:50
         QCheck.(list_of_size Gen.(1 -- 40) (pair (int_range 0 3) (int_range 1 50)))
         (fun pushes ->
           let wfq = Policy.Wfq.create () in
           let flows =
             Array.init 4 (fun f ->
                 Policy.Wfq.add_flow wfq ~flow_id:f ~weight:(float_of_int (f + 1)))
           in
           List.iteri
             (fun i (flow, cost) ->
               Policy.Wfq.push wfq flows.(flow) ~cost:(float_of_int cost)
                 (flow, i))
             pushes;
           let popped = ref [] in
           for _ = 1 to List.length pushes do
             let e = Engine.create () in
             Engine.run_process e (fun () ->
                 popped := Policy.Wfq.pop_payload wfq :: !popped)
           done;
           let popped = List.rev !popped in
           (* All items pop exactly once; per-flow order is preserved. *)
           List.length popped = List.length pushes
           && List.for_all
                (fun f ->
                  let pushed_f =
                    List.filteri (fun _ (fl, _) -> fl = f) pushes
                    |> List.mapi (fun _ _ -> ())
                  in
                  let popped_f =
                    List.filter (fun (fl, _) -> fl = f) popped
                  in
                  let idxs = List.map snd popped_f in
                  List.length popped_f = List.length pushed_f
                  && idxs = List.sort compare idxs)
                [ 0; 1; 2; 3 ]));
    Alcotest.test_case "wfq weighted order under equal demand" `Quick
      (fun () ->
        let wfq = Policy.Wfq.create () in
        let f1 = Policy.Wfq.add_flow wfq ~flow_id:1 ~weight:1.0 in
        let f4 = Policy.Wfq.add_flow wfq ~flow_id:4 ~weight:4.0 in
        for _ = 0 to 7 do
          Policy.Wfq.push wfq f1 ~cost:100.0 1;
          Policy.Wfq.push wfq f4 ~cost:100.0 4
        done;
        let order = ref [] in
        let e = Engine.create () in
        Engine.run_process e (fun () ->
            for _ = 1 to 16 do
              order := Policy.Wfq.pop_payload wfq :: !order
            done);
        let first8 =
          List.filteri (fun i _ -> i < 8) (List.rev !order)
        in
        let heavy = List.length (List.filter (fun f -> f = 4) first8) in
        (* The weight-4 flow should dominate the first half. *)
        Alcotest.(check bool) "heavy flow first" true (heavy >= 5));
    Alcotest.test_case "quota rotates windows" `Quick (fun () ->
        let e = Engine.create () in
        Engine.run_process e (fun () ->
            let q = Policy.Quota.create e ~window_ns:(Time.ms 1) ~budget:10.0 in
            for _ = 1 to 35 do
              Policy.Quota.charge q 1.0
            done);
        (* 35 units at 10/ms: needs to reach the 4th window. *)
        Alcotest.(check bool) "stalled into later windows" true
          (Engine.now e >= Time.ms 3));
    Alcotest.test_case "oversized call throttles instead of wedging" `Quick
      (fun () ->
        (* A call bigger than a whole window's budget can never fit;
           it must overdraw a fresh window (one oversized call per
           window), not stall forever. *)
        let e = Engine.create () in
        let finished = ref false in
        Engine.run_process e (fun () ->
            let q = Policy.Quota.create e ~window_ns:(Time.ms 1) ~budget:10.0 in
            Policy.Quota.charge q 25.0;
            (* First oversized call admits immediately at the fresh
               window... *)
            Alcotest.(check int) "no delay for the first" 0 (Engine.now e);
            (* ...the second stalls to the next window boundary, then
               admits. *)
            Policy.Quota.charge q 25.0;
            Alcotest.(check int)
              "second waits one window" (Time.ms 1) (Engine.now e);
            finished := true);
        Alcotest.(check bool) "charges returned" true !finished);
  ]

(* A miniature spec for stub/server plumbing tests. *)
let mini_plan () =
  let src =
    {|
api("mini");
#include "mini.h"
type(st) { success(OK); }
st ping(int value) { sync; record(no_record); }
st fire(int value) { async; record(no_record); }
|}
  in
  let header = "#define OK 0\ntypedef int st;\nst ping(int value);\nst fire(int value);" in
  let resolve = function "mini.h" -> Some header | _ -> None in
  match Ava_spec.Parser.parse ~resolve_include:resolve src with
  | Error e -> Alcotest.failf "mini spec: %s" e.Ava_spec.Parser.message
  | Ok spec -> (
      match Plan.compile spec with
      | Ok p -> p
      | Error e -> Alcotest.failf "mini plan: %s" e)

let stub_server_pair e plan =
  let guest_end, server_end = Transport.direct e in
  let server =
    Server.create e ~plan ~make_state:(fun ~vm_id -> ref vm_id)
  in
  ignore (Server.attach_vm server ~vm_id:1 ~ep:server_end);
  let stub = Stub.create e ~vm_id:1 ~plan ~ep:guest_end in
  (stub, server)

let stub_tests =
  [
    Alcotest.test_case "sync call gets its reply" `Quick (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = stub_server_pair e plan in
        Server.register server "ping" (fun _ctx st args ->
            Alcotest.(check int) "state is vm id" 1 !st;
            match args with
            | [ Wire.I64 v ] -> (0, Wire.I64 (Int64.mul v 2L), [])
            | _ -> (Server.status_bad_arguments, Wire.Unit, []));
        let reply =
          Engine.run_process e (fun () ->
              Result.get_ok
                (Stub.invoke_sync stub ~fn:"ping"
                   ~args:[ Wire.int 21 ]))
        in
        Alcotest.(check bool) "doubled" true
          (Wire.equal reply.Message.reply_ret (Wire.int 42));
        Alcotest.(check int) "executed" 1 (Server.executed server));
    Alcotest.test_case "async failures defer to next sync call" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = stub_server_pair e plan in
        Server.register server "ping" (fun _ _ _ -> (0, Wire.Unit, []));
        Server.register server "fire" (fun _ _ args ->
            match args with
            | [ Wire.I64 v ] -> (-Int64.to_int v, Wire.Unit, [])
            | _ -> (Server.status_bad_arguments, Wire.Unit, []));
        Engine.run_process e (fun () ->
            List.iter
              (fun status ->
                match Stub.invoke stub ~fn:"fire" ~args:[ Wire.int status ] with
                | Ok None -> ()
                | _ -> Alcotest.fail "fire should be async")
              [ 77; 78 ];
            let _ =
              Result.get_ok
                (Stub.invoke_sync stub ~fn:"ping" ~args:[ Wire.int 1 ])
            in
            Alcotest.(check int) "both pending" 2 (Stub.pending_errors stub);
            Alcotest.(check (option (pair string int)))
              "oldest error first"
              (Some ("fire", -77))
              (Stub.take_deferred_error stub);
            Alcotest.(check (option (pair string int)))
              "then the next"
              (Some ("fire", -78))
              (Stub.take_deferred_error stub);
            Alcotest.(check int) "drained" 0 (Stub.pending_errors stub)));
    Alcotest.test_case "unknown function fails locally" `Quick (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, _server = stub_server_pair e plan in
        Engine.run_process e (fun () ->
            match Stub.invoke stub ~fn:"nope" ~args:[] with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted unplanned function"));
    Alcotest.test_case "unregistered handler is rejected by server" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = stub_server_pair e plan in
        let reply =
          Engine.run_process e (fun () ->
              Result.get_ok
                (Stub.invoke_sync stub ~fn:"ping" ~args:[ Wire.int 1 ]))
        in
        Alcotest.(check int) "unknown function status"
          Server.status_unknown_function reply.Message.reply_status;
        Alcotest.(check int) "rejected count" 1 (Server.rejected server));
    Alcotest.test_case "guest handles count monotonically" `Quick (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, _ = stub_server_pair e plan in
        let a = Stub.fresh_handle stub in
        let b = Stub.fresh_handle stub in
        Alcotest.(check bool) "distinct, ordered" true
          (b = a + 1 && a >= 0x100000));
    Alcotest.test_case "unexpected handler exception is counted, not masked"
      `Quick (fun () ->
        (* A handler bug (an exception outside the Unknown_handle /
           Bad_args / Device_lost protocol) must fail the call and bump
           the server's bug counter instead of silently masquerading as
           an ordinary guest error. *)
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = stub_server_pair e plan in
        Server.register server "ping" (fun _ _ _ -> failwith "handler bug");
        let reply =
          Engine.run_process e (fun () ->
              Result.get_ok
                (Stub.invoke_sync stub ~fn:"ping" ~args:[ Wire.int 1 ]))
        in
        Alcotest.(check int) "call failed"
          Server.status_bad_arguments reply.Message.reply_status;
        Alcotest.(check int) "bug counted" 1 (Server.unexpected_exns server);
        (* The worker survives: the next call still executes. *)
        Server.register server "ping" (fun _ _ _ -> (0, Wire.Unit, []));
        let reply =
          Engine.run_process e (fun () ->
              Result.get_ok
                (Stub.invoke_sync stub ~fn:"ping" ~args:[ Wire.int 2 ]))
        in
        Alcotest.(check int) "worker survived" 0 reply.Message.reply_status);
  ]

(* Stub/server pair with the transfer cache armed on both halves. *)
let cached_pair e plan ~capacity =
  let guest_end, server_end = Transport.direct e in
  let server =
    Server.create e ~cache_capacity:capacity ~plan
      ~make_state:(fun ~vm_id -> ref vm_id)
  in
  ignore (Server.attach_vm server ~vm_id:1 ~ep:server_end);
  let stub =
    Stub.create e ~cache:(Stub.cache_for_capacity capacity) ~vm_id:1 ~plan
      ~ep:guest_end
  in
  (stub, server)

(* Register a "ping" handler that records every payload it sees and
   fails loudly if a cache value ever leaks past resolution. *)
let payload_recorder server seen =
  Server.register server "ping" (fun _ctx _st args ->
      match args with
      | [ Wire.Blob b ] ->
          seen := Bytes.copy b :: !seen;
          (0, Wire.int (Bytes.length b), [])
      | [ (Wire.Blob_ref _ | Wire.Blob_cached _) ] ->
          Alcotest.fail "handler saw an unresolved cache value"
      | _ -> (Server.status_bad_arguments, Wire.Unit, []))

let send_payload stub payload =
  let reply =
    Result.get_ok
      (Stub.invoke_sync stub ~fn:"ping"
         ~args:[ Wire.Blob (Bytes.copy payload) ])
  in
  Alcotest.(check int) "status" 0 reply.Message.reply_status;
  Alcotest.(check (option int))
    "handler saw full length"
    (Some (Bytes.length payload))
    (Wire.to_int reply.Message.reply_ret)

let cache_tests =
  [
    Alcotest.test_case "repeated payload travels as a ref" `Quick (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = cached_pair e plan ~capacity:(1024 * 1024) in
        let seen = ref [] in
        payload_recorder server seen;
        let payload = Bytes.make 4096 'p' in
        Engine.run_process e (fun () ->
            send_payload stub payload;
            send_payload stub payload;
            send_payload stub payload);
        Alcotest.(check int) "one announce" 1 (Stub.cache_announces stub);
        Alcotest.(check int) "two refs" 2 (Stub.cache_refs stub);
        Alcotest.(check int) "bytes elided" (2 * 4096)
          (Stub.cache_saved_bytes stub);
        Alcotest.(check int) "no naks" 0 (Server.naks_sent server);
        let c = Server.cache_totals server in
        Alcotest.(check int) "hits" 2 c.Server.cs_hits;
        Alcotest.(check int) "insertions" 1 c.Server.cs_insertions;
        Alcotest.(check int) "handler ran thrice" 3 (List.length !seen);
        List.iter
          (fun b -> Alcotest.(check bytes) "payload intact" payload b)
          !seen);
    Alcotest.test_case "payloads below the floor are never cached" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = cached_pair e plan ~capacity:(1024 * 1024) in
        let seen = ref [] in
        payload_recorder server seen;
        let payload = Bytes.make 512 's' in
        Engine.run_process e (fun () ->
            send_payload stub payload;
            send_payload stub payload);
        Alcotest.(check int) "no announces" 0 (Stub.cache_announces stub);
        Alcotest.(check int) "no refs" 0 (Stub.cache_refs stub);
        let c = Server.cache_totals server in
        Alcotest.(check int) "store untouched" 0 c.Server.cs_insertions);
    (* Eviction then a stale ref: the server NAKs, the stub resends the
       full payload under the same seq, and the call still succeeds. *)
    Alcotest.test_case "stale ref heals through nak and resend" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = cached_pair e plan ~capacity:8192 in
        let seen = ref [] in
        payload_recorder server seen;
        let mk c = Bytes.make 4096 c in
        Engine.run_process e (fun () ->
            send_payload stub (mk 'a');
            send_payload stub (mk 'b');
            (* 'c' overflows the 8 KiB store and evicts 'a' (LRU). *)
            send_payload stub (mk 'c');
            (* The stub still believes 'a' is resident: ref -> miss. *)
            send_payload stub (mk 'a'));
        Alcotest.(check bool) "evicted" true
          ((Server.cache_totals server).Server.cs_evictions >= 1);
        Alcotest.(check int) "one nak" 1 (Server.naks_sent server);
        Alcotest.(check int) "one full resend" 1
          (Stub.cache_nak_resends stub);
        Alcotest.(check int) "four executions" 4 (List.length !seen);
        Alcotest.(check bytes) "last payload correct" (mk 'a')
          (List.hd !seen));
    Alcotest.test_case "flush_cache empties the store, refs heal" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server = cached_pair e plan ~capacity:(1024 * 1024) in
        let seen = ref [] in
        payload_recorder server seen;
        let payload = Bytes.make 4096 'f' in
        Engine.run_process e (fun () ->
            send_payload stub payload;
            Server.flush_cache server ~vm_id:1;
            Alcotest.(check (option int))
              "resident after flush" (Some 0)
              (Option.map
                 (fun c -> c.Server.cs_resident_bytes)
                 (Server.cache_stats server ~vm_id:1));
            send_payload stub payload;
            send_payload stub payload);
        Alcotest.(check int) "nak healed the stale ref" 1
          (Server.naks_sent server);
        Alcotest.(check int) "all calls executed" 3 (List.length !seen));
    Alcotest.test_case "oversized payloads bypass the cache" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        (* Capacity below the payload size: the stub must not announce
           (an oversized announce could never become resident and would
           NAK forever). *)
        let stub, server = cached_pair e plan ~capacity:2048 in
        let seen = ref [] in
        payload_recorder server seen;
        let payload = Bytes.make 4096 'o' in
        Engine.run_process e (fun () ->
            send_payload stub payload;
            send_payload stub payload);
        Alcotest.(check int) "no announces" 0 (Stub.cache_announces stub);
        Alcotest.(check int) "no refs" 0 (Stub.cache_refs stub);
        Alcotest.(check int) "no naks" 0 (Server.naks_sent server);
        Alcotest.(check int) "both executed" 2 (List.length !seen));
  ]

(* Stub/server pair with shared virtual addressing armed: the stub pins
   page-or-larger blobs into [iommu] and sends [Mapped_ref]s; the server
   resolves them back through the same IOMMU before dispatch. *)
let sva_pair e plan =
  let guest_end, server_end = Transport.direct e in
  let iommu = Ava_device.Iommu.create () in
  let dma = Ava_device.Dma.of_gpu_timing Ava_device.Timing.gtx1080 in
  let server = Server.create e ~plan ~make_state:(fun ~vm_id -> ref vm_id) in
  ignore (Server.attach_vm server ~vm_id:1 ~ep:server_end);
  Server.set_sva server ~vm_id:1 ~iommu ~dma;
  let stub = Stub.create e ~sva:iommu ~vm_id:1 ~plan ~ep:guest_end in
  (stub, server, iommu)

let sva_tests =
  [
    Alcotest.test_case "page-sized blob crosses as a 13-byte ref" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server, iommu = sva_pair e plan in
        let seen = ref [] in
        payload_recorder server seen;
        let payload = Bytes.init 8192 (fun i -> Char.chr (i land 0xff)) in
        Engine.run_process e (fun () -> send_payload stub payload);
        Alcotest.(check int) "one blob pinned" 1 (Stub.sva_maps stub);
        Alcotest.(check int) "payload bytes elided" 8192
          (Stub.sva_saved_bytes stub);
        Alcotest.(check int) "server resolved it" 1
          (Server.sva_resolutions server);
        Alcotest.(check int) "resolved byte count" 8192
          (Server.sva_resolved_bytes server);
        Alcotest.(check int) "iommu holds the pin" 1
          (Ava_device.Iommu.mappings iommu);
        (* The handler must see the original bytes, not the ref. *)
        (match !seen with
        | [ b ] ->
            Alcotest.(check bool) "payload intact" true (Bytes.equal b payload)
        | _ -> Alcotest.fail "handler ran wrong number of times"));
    Alcotest.test_case "sub-page blobs stay inline" `Quick (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server, _ = sva_pair e plan in
        let seen = ref [] in
        payload_recorder server seen;
        Engine.run_process e (fun () ->
            send_payload stub (Bytes.make 64 'i');
            send_payload stub (Bytes.make 4095 'j'));
        Alcotest.(check int) "nothing pinned" 0 (Stub.sva_maps stub);
        Alcotest.(check int) "no resolutions" 0 (Server.sva_resolutions server));
    Alcotest.test_case "unmapped ref fails the call, worker survives" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let stub, server, _ = sva_pair e plan in
        let seen = ref [] in
        payload_recorder server seen;
        Engine.run_process e (fun () ->
            (* Forged ref: inside the decode window, never pinned.  The
               server must fail this call — never NAK, never raise — and
               keep serving. *)
            let reply =
              Result.get_ok
                (Stub.invoke_sync stub ~fn:"ping"
                   ~args:
                     [
                       Wire.Mapped_ref
                         {
                           mr_iova =
                             Int64.add Ava_device.Iommu.iova_base 0x10_0000L;
                           mr_size = 4096;
                         };
                     ])
            in
            Alcotest.(check int) "bad-arguments status"
              Server.status_bad_arguments reply.Message.reply_status;
            Alcotest.(check int) "rejection counted" 1
              (Server.sva_rejected server);
            Alcotest.(check int) "handler never ran" 0 (List.length !seen);
            send_payload stub (Bytes.make 8192 'k'));
        Alcotest.(check int) "later call resolved fine" 1
          (Server.sva_resolutions server));
  ]

(* A full guest -> router -> server stack over raw endpoints, so tests
   can inject hand-built frames the stub would never produce. *)
let router_stack e plan =
  let virt = Ava_device.Timing.default_virt in
  let hv = Ava_hv.Hypervisor.create ~virt () in
  let vm = Ava_hv.Hypervisor.create_vm hv ~name:"guest" in
  let vm_id = Ava_hv.Vm.id vm in
  let guest_end, router_guest_end = Transport.direct e in
  let router_server_end, server_end = Transport.direct e in
  let server = Server.create e ~plan ~make_state:(fun ~vm_id -> ref vm_id) in
  Server.register server "ping" (fun _ _ _ -> (0, Wire.Unit, []));
  Server.register server "fire" (fun _ _ _ -> (0, Wire.Unit, []));
  ignore (Server.attach_vm server ~vm_id ~ep:server_end);
  let router = Router.create e ~virt ~plan in
  ignore
    (Router.attach_vm router vm ~guest_side:router_guest_end
       ~server_side:router_server_end);
  (guest_end, router, server, vm_id)

let router_tests =
  [
    (* Regression: a batch with one unverifiable member used to be
       dropped wholesale — verified members were charged, forwarded
       never, and the guest hung awaiting replies that could not come. *)
    Alcotest.test_case "batch with rejected member answers every call"
      `Quick (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let guest_end, router, server, vm_id = router_stack e plan in
        let mk seq fn =
          {
            Message.call_seq = seq;
            call_vm = vm_id;
            call_fn = fn;
            call_args = [ Wire.int seq ];
          }
        in
        (* Member 1 names a function outside the spec: the router must
           reject it and still forward members 0 and 2. *)
        let batch = Message.Batch [ mk 0 "fire"; mk 1 "nope"; mk 2 "ping" ] in
        let replies = Hashtbl.create 4 in
        Engine.run_process e (fun () ->
            Transport.send guest_end (Message.encode batch);
            (* Three members, three replies: before the fix this recv
               loop stalled the engine. *)
            for _ = 1 to 3 do
              match Message.decode (Transport.recv guest_end) with
              | Ok (Message.Reply r) ->
                  Hashtbl.replace replies r.Message.reply_seq
                    r.Message.reply_status
              | _ -> Alcotest.fail "expected a reply frame"
            done);
        Alcotest.(check (option int))
          "member 0 executed" (Some 0) (Hashtbl.find_opt replies 0);
        Alcotest.(check (option int))
          "member 1 rejected"
          (Some Server.status_unknown_function)
          (Hashtbl.find_opt replies 1);
        Alcotest.(check (option int))
          "member 2 executed" (Some 0) (Hashtbl.find_opt replies 2);
        Alcotest.(check int) "router rejected one" 1 (Router.rejected router);
        Alcotest.(check int) "one batch forwarded" 1 (Router.forwarded router);
        Alcotest.(check int) "server executed the survivors" 2
          (Server.executed server);
        Alcotest.(check int) "no replies owed" 0
          (Router.in_flight_calls router ~vm_id));
    (* The router polices through its frame cursor, which copies no
       payload; a partially rejected batch must be re-framed from the
       original member bytes, so the survivors' blobs reach the server
       intact. *)
    Alcotest.test_case "re-framed batch keeps member payloads" `Quick
      (fun () ->
        let run members =
          let e = Engine.create () in
          let guest_end, router, server, vm_id = router_stack e (mini_plan ()) in
          let seen = ref [] in
          Server.set_call_hook server (fun ~vm_id:_ ~status:_ c ->
              seen := (c.Message.call_seq, c.Message.call_args) :: !seen);
          let calls =
            List.mapi
              (fun seq (fn, arg) ->
                { Message.call_seq = seq; call_vm = vm_id; call_fn = fn;
                  call_args = [ arg ] })
              members
          in
          Engine.run_process e (fun () ->
              Transport.send guest_end (Message.encode (Message.Batch calls));
              List.iter (fun _ -> ignore (Transport.recv guest_end)) calls);
          Alcotest.(check int) "one member rejected" 1 (Router.rejected router);
          List.iteri
            (fun seq (fn, arg) ->
              match List.assoc_opt seq !seen with
              | Some args when fn <> "nope" ->
                  Alcotest.(check bool)
                    (Printf.sprintf "member %d payload" seq)
                    true
                    (List.length args = 1 && Wire.equal (List.hd args) arg)
              | None when fn = "nope" -> ()
              | _ -> Alcotest.failf "member %d mis-executed" seq)
            members
        in
        let blob s = Wire.Blob (Bytes.of_string s) in
        (* One survivor travels as a lone [Call] frame, two as a batch. *)
        run [ ("fire", blob "first payload"); ("nope", Wire.int 1) ];
        run
          [
            ("fire", blob "first payload");
            ("nope", Wire.int 1);
            ("ping", blob "third payload");
          ]);
    Alcotest.test_case "all-rejected batch forwards nothing" `Quick
      (fun () ->
        let e = Engine.create () in
        let plan = mini_plan () in
        let guest_end, router, server, _vm_id = router_stack e plan in
        let mk seq fn =
          {
            Message.call_seq = seq;
            call_vm = 1;
            call_fn = fn;
            call_args = [ Wire.int seq ];
          }
        in
        let batch = Message.Batch [ mk 0 "nope"; mk 1 "nope2" ] in
        let statuses = ref [] in
        Engine.run_process e (fun () ->
            Transport.send guest_end (Message.encode batch);
            for _ = 1 to 2 do
              match Message.decode (Transport.recv guest_end) with
              | Ok (Message.Reply r) ->
                  statuses := r.Message.reply_status :: !statuses
              | _ -> Alcotest.fail "expected a reply frame"
            done);
        Alcotest.(check (list int))
          "both rejected"
          [ Server.status_unknown_function; Server.status_unknown_function ]
          !statuses;
        Alcotest.(check int) "nothing forwarded" 0 (Router.forwarded router);
        Alcotest.(check int) "nothing executed" 0 (Server.executed server));
    (* The router's per-VM seq window: one record per seq, so a long
       stream leaves no more state behind than the server's reply-log
       depth plus what is still unanswered, yet a retransmit inside
       that depth still meets its original verdict. *)
    Alcotest.test_case "seq window stays bounded, replays rejections"
      `Quick (fun () ->
        let e = Engine.create () in
        let guest_end, router, server, vm_id = router_stack e (mini_plan ()) in
        let call seq fn =
          Message.encode
            (Message.Call
               { Message.call_seq = seq; call_vm = vm_id; call_fn = fn;
                 call_args = [ Wire.int seq ] })
        in
        let round_trip frame =
          Transport.send guest_end frame;
          match Message.decode (Transport.recv guest_end) with
          | Ok (Message.Reply r) -> r
          | _ -> Alcotest.fail "expected a reply frame"
        in
        let n = 20_000 and bad = 3 in
        let bounded () =
          Router.window router ~vm_id
          <= Server.replay_cache_cap + Router.in_flight_calls router ~vm_id
        in
        Engine.run_process e (fun () ->
            for seq = 0 to n - 1 do
              let r = round_trip (call seq (if seq = bad then "nope" else "ping")) in
              Alcotest.(check int) "reply in order" seq r.Message.reply_seq;
              if seq = 1000 then begin
                (* The guest lost the rejection: its retransmit gets the
                   same verdict, and is never forwarded. *)
                let r = round_trip (call bad "nope") in
                Alcotest.(check int) "rejection replayed"
                  Server.status_unknown_function r.Message.reply_status
              end;
              if seq mod 1000 = 0 && not (bounded ()) then
                Alcotest.failf "window %d at seq %d" (Router.window router ~vm_id) seq
            done;
            Alcotest.(check bool) "window bounded after the stream" true (bounded ());
            (* Far behind the newest seq the base has passed the
               rejected one: a further copy is dropped and counted. *)
            Transport.send guest_end (call bad "nope");
            Engine.delay (Time.ms 1);
            Alcotest.(check int) "below-base copy dropped" 1 (Router.dropped router);
            (* No stub sends a seq absurdly far past the base, or a
               negative one: neither is policed or grows the window. *)
            Transport.send guest_end (call max_int "ping");
            Transport.send guest_end (call (-1) "ping");
            Engine.delay (Time.ms 1);
            Alcotest.(check int) "bogus seqs dropped" 3 (Router.dropped router);
            Alcotest.(check bool) "window still bounded" true (bounded ()));
        Alcotest.(check int) "rejected once" 1 (Router.rejected router);
        Alcotest.(check int) "each good call forwarded once" (n - 1)
          (Router.forwarded router);
        Alcotest.(check int) "each good call executed once" (n - 1)
          (Server.executed server));
    (* Router and server windows follow one horizon rule, and the router
       applies it as replies flow back too: after a burst whose replies
       all returned late, the router's base has caught up with the
       server's, so the lowest seq it still forwards is answered. *)
    Alcotest.test_case "a copy the router forwards finds its reply" `Quick
      (fun () ->
        let e = Engine.create () in
        let guest_end, router, server, vm_id = router_stack e (mini_plan ()) in
        (* A slow device: the router opens every seq long before most
           replies are back. *)
        Server.register server "fire" (fun _ _ _ ->
            Engine.delay (Time.us 10);
            (0, Wire.Unit, []));
        let fire seq =
          Message.encode
            (Message.Call
               { Message.call_seq = seq; call_vm = vm_id; call_fn = "fire";
                 call_args = [ Wire.int seq ] })
        in
        let n = 6000 in
        Engine.run_process e (fun () ->
            for seq = 0 to n - 1 do
              Transport.send guest_end (fire seq)
            done;
            for _ = 1 to n do
              ignore (Transport.recv guest_end)
            done;
            let base = n - Router.window router ~vm_id in
            Alcotest.(check int)
              "router base at the horizon" (n - Server.replay_cache_cap) base;
            Transport.send guest_end (fire base);
            (match Message.decode (Transport.recv guest_end) with
            | Ok (Message.Reply r) ->
                Alcotest.(check int)
                  "lowest forwarded seq answered" base r.Message.reply_seq
            | _ -> Alcotest.fail "expected a reply frame");
            Transport.send guest_end (fire (base - 1));
            Engine.delay (Time.ms 1));
        Alcotest.(check int) "replayed, not executed" 1 (Server.replayed server);
        Alcotest.(check int) "each seq executed once" n (Server.executed server);
        Alcotest.(check int) "below the base: dropped" 1 (Router.dropped router));
    Alcotest.test_case "a seq repeated within one batch is admitted once"
      `Quick (fun () ->
        let e = Engine.create () in
        let guest_end, router, server, vm_id = router_stack e (mini_plan ()) in
        let ping seq =
          { Message.call_seq = seq; call_vm = vm_id; call_fn = "ping";
            call_args = [ Wire.int seq ] }
        in
        Engine.run_process e (fun () ->
            Transport.send guest_end
              (Message.encode (Message.Batch [ ping 0; ping 0; ping 1 ]));
            for seq = 0 to 1 do
              match Message.decode (Transport.recv guest_end) with
              | Ok (Message.Reply r) ->
                  Alcotest.(check int) "one reply per seq" seq r.Message.reply_seq
              | _ -> Alcotest.fail "expected a reply frame"
            done);
        Alcotest.(check int) "repeat dropped" 1 (Router.dropped router);
        Alcotest.(check int) "each seq executed once" 2 (Server.executed server);
        Alcotest.(check int) "no replies owed" 0
          (Router.in_flight_calls router ~vm_id));
    Alcotest.test_case "a batch stalled in policing across a detach is dropped"
      `Quick (fun () ->
        let e = Engine.create () in
        let guest_end, router, server, vm_id = router_stack e (mini_plan ()) in
        (* One token: the batch's second call waits a second for the
           next, and the VM is detached meanwhile. *)
        Router.set_rate_limit router ~vm_id ~rate_per_s:1.0 ~burst:1.0;
        let ping seq =
          { Message.call_seq = seq; call_vm = vm_id; call_fn = "ping";
            call_args = [ Wire.int seq ] }
        in
        Engine.run_process e (fun () ->
            Transport.send guest_end
              (Message.encode (Message.Batch [ ping 0; ping 1; ping 2 ]));
            Engine.delay (Time.ms 1);
            Router.detach_vm router ~vm_id;
            Engine.delay (Time.s 3));
        Alcotest.(check int) "batch dropped" 1 (Router.dropped router);
        Alcotest.(check int) "nothing forwarded" 0 (Router.forwarded router);
        Alcotest.(check int) "nothing executed" 0 (Server.executed server));
    Alcotest.test_case "admin interface is safe under a backlogged WFQ"
      `Quick (fun () ->
        (* Two VMs flood the router with async calls while an
           administrator reconfigures weights, quotas, rate limits and
           the circuit breaker mid-drain: every call must still be
           answered exactly once and the in-flight ledger must drain. *)
        let e = Engine.create () in
        let plan = mini_plan () in
        let virt = Ava_device.Timing.default_virt in
        let hv = Ava_hv.Hypervisor.create ~virt () in
        let server =
          Server.create e ~plan ~make_state:(fun ~vm_id -> ref vm_id)
        in
        Server.register server "fire" (fun _ _ _ -> (0, Wire.Unit, []));
        let router = Router.create e ~virt ~plan in
        let attach name rate =
          let vm = Ava_hv.Hypervisor.create_vm hv ~name in
          let vm_id = Ava_hv.Vm.id vm in
          let guest_end, router_guest_end = Transport.direct e in
          let router_server_end, server_end = Transport.direct e in
          ignore (Server.attach_vm server ~vm_id ~ep:server_end);
          ignore
            (Router.attach_vm ~rate_per_s:rate ~burst:4.0 router vm
               ~guest_side:router_guest_end ~server_side:router_server_end);
          (guest_end, vm_id)
        in
        (* Low initial rate limits keep a backlog in front of the WFQ
           for the whole admin sequence. *)
        let g1, vm1 = attach "noisy" 2e5 in
        let g2, vm2 = attach "peer" 2e5 in
        let n = 40 in
        let burst ep vm_id =
          for seq = 0 to n - 1 do
            Transport.send ep
              (Message.encode
                 (Message.Call
                    {
                      Message.call_seq = seq;
                      call_vm = vm_id;
                      call_fn = "fire";
                      call_args = [ Wire.int seq ];
                    }))
          done
        in
        let drain ep got =
          let done_ = Ivar.create () in
          Engine.spawn e (fun () ->
              for _ = 1 to n do
                match Message.decode (Transport.recv ep) with
                | Ok (Message.Reply r) ->
                    if r.Message.reply_status = 0 then incr got
                | _ -> Alcotest.fail "expected a reply frame"
              done;
              Ivar.fill done_ ());
          done_
        in
        let got1 = ref 0 and got2 = ref 0 in
        Engine.run_process e (fun () ->
            burst g1 vm1;
            burst g2 vm2;
            let d1 = drain g1 got1 and d2 = drain g2 got2 in
            (* Reconfigure everything while the backlog drains. *)
            Engine.delay (Time.us 20);
            Router.set_weight router ~vm_id:vm1 ~weight:8.0;
            Router.set_quota router ~vm_id:vm2 ~budget:1e9
              ~window_ns:(Time.ms 1);
            Router.set_rate_limit router ~vm_id:vm2 ~rate_per_s:1e6
              ~burst:8.0;
            Router.set_breaker router ~vm_id:vm2
              Policy.Breaker.default_config;
            (match Router.breaker_info router ~vm_id:vm2 with
            | Some info ->
                Alcotest.(check bool) "breaker installed mid-run" true
                  (info.Router.bi_state = Policy.Breaker.Closed)
            | None -> Alcotest.fail "breaker not visible");
            Engine.delay (Time.us 20);
            Router.clear_rate_limit router ~vm_id:vm1;
            Router.clear_rate_limit router ~vm_id:vm2;
            Router.clear_breaker router ~vm_id:vm2;
            Ivar.read d1;
            Ivar.read d2);
        Alcotest.(check int) "vm1 got every reply" n !got1;
        Alcotest.(check int) "vm2 got every reply" n !got2;
        Alcotest.(check int) "all calls forwarded" (2 * n)
          (Router.forwarded router);
        Alcotest.(check int) "no rejections" 0 (Router.rejected router);
        Alcotest.(check int) "nothing quarantined" 0
          (Router.quarantined router);
        Alcotest.(check int) "vm1 ledger drained" 0
          (Router.in_flight_calls router ~vm_id:vm1);
        Alcotest.(check int) "vm2 ledger drained" 0
          (Router.in_flight_calls router ~vm_id:vm2));
  ]

(* A bare API server, no router in front (as [User_rpc] deploys it):
   tests send its endpoint frames no router would pass. *)
let ping_server e =
  let server =
    Server.create e ~plan:(mini_plan ()) ~make_state:(fun ~vm_id -> ref vm_id)
  in
  Server.register server "ping" (fun _ _ _ -> (0, Wire.Unit, []));
  server

let attach_bare e server =
  let guest_end, server_end = Transport.direct e in
  ignore (Server.attach_vm server ~vm_id:1 ~ep:server_end);
  guest_end

let ping_frame seq =
  Message.encode
    (Message.Call
       { Message.call_seq = seq; call_vm = 1; call_fn = "ping";
         call_args = [ Wire.int seq ] })

let skip_frame seqs =
  Message.encode (Message.Skip { Message.skip_vm = 1; skip_seqs = seqs })

let reply_seq ep =
  match Message.decode (Transport.recv ep) with
  | Ok (Message.Reply r) -> r.Message.reply_seq
  | _ -> Alcotest.fail "expected a reply frame"

let server_tests =
  [
    (* The server's per-VM seq window: parked calls, skip notices and the
       reply log in one ring, bounded by the same horizon as the
       router's. *)
    Alcotest.test_case "seq window stays bounded, replays inside the horizon"
      `Quick (fun () ->
        let e = Engine.create () in
        let server = ping_server e in
        let guest = attach_bare e server in
        let n = 20_000 and h = Server.replay_cache_cap in
        Engine.run_process e (fun () ->
            for seq = 0 to n - 1 do
              Transport.send guest (ping_frame seq);
              Alcotest.(check int) "reply in order" seq (reply_seq guest);
              let logged = List.length (Server.export_replies server ~vm_id:1) in
              if seq mod 1000 = 0 && logged > h then
                Alcotest.failf "%d replies logged at seq %d" logged seq
            done;
            (* The base sits [h] behind the newest seq: a duplicate just
               inside replays its reply, one just outside gets none. *)
            Transport.send guest (ping_frame (n - h));
            Alcotest.(check int) "inside the horizon: replayed" (n - h) (reply_seq guest);
            Transport.send guest (ping_frame (n - h - 1));
            (* Skip notices for future seqs, and a call parked past them:
               nothing runs until the gap before them fills. *)
            Transport.send guest (skip_frame [ n + 1; n + 2 ]);
            Transport.send guest (ping_frame (n + 3));
            Engine.delay (Time.ms 1);
            Alcotest.(check int) "parked behind the gap" n (Server.executed server);
            Transport.send guest (ping_frame n);
            (* No reply for the seq outside the horizon comes first. *)
            Alcotest.(check int) "gap filled" n (reply_seq guest);
            Alcotest.(check int)
              "skips passed, parked call ran" (n + 3) (reply_seq guest));
        Alcotest.(check int) "one replay" 1 (Server.replayed server);
        Alcotest.(check int) "each call executed once" (n + 2) (Server.executed server);
        (* Migration: the destination resumes at the source's cursor and
           answers a retransmit of a pre-cursor seq from the carried
           window, without executing it. *)
        let dst = ping_server e in
        let guest' = attach_bare e dst in
        Server.hand_over server ~into:dst ~vm_id:1;
        Alcotest.(check (list int))
          "replied cells carried"
          (List.map fst (Server.export_replies server ~vm_id:1))
          (List.map fst (Server.export_replies dst ~vm_id:1));
        Engine.run_process e (fun () ->
            Transport.send guest' (ping_frame (n + 3));
            Alcotest.(check int) "retransmit answered" (n + 3) (reply_seq guest');
            Transport.send guest' (ping_frame (n + 4));
            Alcotest.(check int) "next seq runs" (n + 4) (reply_seq guest'));
        Alcotest.(check int) "replayed at the destination" 1 (Server.replayed dst);
        Alcotest.(check int) "only the new seq executed" 1 (Server.executed dst));
    (* Regression: a guest with no router in front could park a seq far
       past the cursor, and the parked-call table grew without bound. *)
    Alcotest.test_case "out-of-window seqs are dropped and counted" `Quick
      (fun () ->
        let e = Engine.create () in
        let server = ping_server e in
        let guest = attach_bare e server in
        Engine.run_process e (fun () ->
            Transport.send guest (ping_frame (1 lsl 20));
            Transport.send guest (ping_frame (-1));
            Transport.send guest (skip_frame [ 1 lsl 21 ]);
            Transport.send guest (ping_frame 0);
            Alcotest.(check int) "in-window call answered" 0 (reply_seq guest));
        Alcotest.(check int) "three seqs rejected" 3 (Server.rejected server);
        Alcotest.(check int) "one call executed" 1 (Server.executed server));
  ]

let ctx_tests =
  [
    Alcotest.test_case "virtual id mapping" `Quick (fun () ->
        let ctx = Server.Ctx.create ~vm_id:5 in
        Alcotest.(check (option int)) "well-known passthrough" (Some 42)
          (Server.Ctx.resolve ctx 42);
        let vid = Server.Ctx.fresh ctx in
        Alcotest.(check (option int)) "unbound vid" None
          (Server.Ctx.resolve ctx vid);
        Server.Ctx.bind ctx ~guest:vid ~host:777;
        Alcotest.(check (option int)) "bound" (Some 777)
          (Server.Ctx.resolve ctx vid);
        Alcotest.(check (option int)) "reverse" (Some vid)
          (Server.Ctx.reverse ctx ~host:777);
        Alcotest.(check int) "last fresh" vid (Server.Ctx.last_fresh ctx);
        Server.Ctx.forget ctx vid;
        Alcotest.(check (option int)) "forgotten" None
          (Server.Ctx.resolve ctx vid));
  ]

let migrate_tests =
  [
    Alcotest.test_case "alloc/modify/dealloc pruning" `Quick (fun () ->
        let plan = Result.get_ok (Plan.compile (Ava_spec.Specs.load_simcl ())) in
        let alloc_plan = Option.get (Plan.find plan "clCreateBuffer") in
        let write_plan = Option.get (Plan.find plan "clEnqueueWriteBuffer") in
        let release_plan = Option.get (Plan.find plan "clReleaseMemObject") in
        let t = Migrate.create () in
        let alloc_call vid =
          {
            Message.call_seq = 0;
            call_vm = 1;
            call_fn = "clCreateBuffer";
            call_args =
              [ Wire.Handle 4096L; Wire.int 0; Wire.int 1024; Wire.Unit ];
          }
          |> fun c -> Migrate.observe ~allocated:vid t alloc_plan c
        in
        alloc_call 5000;
        alloc_call 5001;
        let write_call vid =
          {
            Message.call_seq = 0;
            call_vm = 1;
            call_fn = "clEnqueueWriteBuffer";
            call_args =
              [
                Wire.Handle 4097L;
                Wire.Handle (Int64.of_int vid);
                Wire.int 0; Wire.int 0; Wire.int 64;
                Wire.Blob (Bytes.create 64);
                Wire.int 0; Wire.List []; Wire.Unit;
              ];
          }
          |> Migrate.observe t write_plan
        in
        write_call 5000;
        write_call 5001;
        Alcotest.(check int) "log" 4 (Migrate.log_length t);
        Alcotest.(check (list int)) "live objects" [ 5000; 5001 ]
          (List.sort compare (Migrate.live_objects t));
        (* Release 5000: its alloc and write disappear. *)
        Migrate.observe t release_plan
          {
            Message.call_seq = 0;
            call_vm = 1;
            call_fn = "clReleaseMemObject";
            call_args = [ Wire.Handle 5000L ];
          };
        Alcotest.(check int) "pruned" 2 (Migrate.log_length t);
        Alcotest.(check (list int)) "only 5001" [ 5001 ]
          (Migrate.live_objects t);
        Alcotest.(check int) "pruned count" 2 (Migrate.pruned_count t));
    Alcotest.test_case "replay preserves order" `Quick (fun () ->
        let plan = Result.get_ok (Plan.compile (Ava_spec.Specs.load_simcl ())) in
        let alloc_plan = Option.get (Plan.find plan "clCreateBuffer") in
        let t = Migrate.create () in
        for i = 1 to 5 do
          Migrate.observe ~allocated:(5000 + i) t alloc_plan
            {
              Message.call_seq = 0;
              call_vm = 1;
              call_fn = "clCreateBuffer";
              call_args = [ Wire.Handle 4096L; Wire.int 0; Wire.int i; Wire.Unit ];
            }
        done;
        (* Silo.transfer re-issues the log in this order. *)
        let log = Migrate.replay_log t in
        let seen =
          List.filter_map
            (fun (r : Migrate.recorded) ->
              match r.Migrate.rc_args with
              | [ _; _; Wire.I64 i; _ ] -> Some (Int64.to_int i)
              | _ -> None)
            log
        in
        Alcotest.(check int) "count" 5 (List.length log);
        Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] seen);
  ]

let swap_tests =
  [
    Alcotest.test_case "eviction order is LRU" `Quick (fun () ->
        let evicted = ref [] in
        let t =
          Swap.create ~capacity:100
            ~evict:(fun ~key ~bytes:_ -> evicted := key :: !evicted)
            ~restore:(fun ~key:_ ~bytes:_ -> ())
        in
        Result.get_ok (Swap.add t ~key:1 ~bytes:40);
        Result.get_ok (Swap.add t ~key:2 ~bytes:40);
        (* Touch 1 so 2 becomes LRU. *)
        Result.get_ok (Swap.touch t ~key:1);
        Result.get_ok (Swap.add t ~key:3 ~bytes:40);
        Alcotest.(check (list int)) "evicted 2" [ 2 ] !evicted;
        Alcotest.(check bool) "1 resident" true (Swap.is_resident t ~key:1);
        Alcotest.(check bool) "2 gone" false (Swap.is_resident t ~key:2));
    Alcotest.test_case "touch restores with eviction" `Quick (fun () ->
        let t =
          Swap.create ~capacity:100
            ~evict:(fun ~key:_ ~bytes:_ -> ())
            ~restore:(fun ~key:_ ~bytes:_ -> ())
        in
        Result.get_ok (Swap.add t ~key:1 ~bytes:60);
        Result.get_ok (Swap.add t ~key:2 ~bytes:60);
        Alcotest.(check bool) "1 evicted" false (Swap.is_resident t ~key:1);
        Result.get_ok (Swap.touch t ~key:1);
        Alcotest.(check bool) "1 back" true (Swap.is_resident t ~key:1);
        Alcotest.(check bool) "2 out" false (Swap.is_resident t ~key:2);
        Alcotest.(check int) "restores" 1 (Swap.restores t);
        Alcotest.(check bool) "invariants" true (Swap.check_invariants t));
    Alcotest.test_case "oversized buffer rejected" `Quick (fun () ->
        let t =
          Swap.create ~capacity:100
            ~evict:(fun ~key:_ ~bytes:_ -> ())
            ~restore:(fun ~key:_ ~bytes:_ -> ())
        in
        match Swap.add t ~key:1 ~bytes:200 with
        | Error `Too_big -> ()
        | Ok () -> Alcotest.fail "accepted oversized buffer");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random workload keeps swap invariants"
         ~count:200
         QCheck.(
           list_of_size Gen.(1 -- 60)
             (pair (int_range 0 2) (pair (int_range 1 20) (int_range 1 50))))
         (fun ops ->
           let t =
             Swap.create ~capacity:100
               ~evict:(fun ~key:_ ~bytes:_ -> ())
               ~restore:(fun ~key:_ ~bytes:_ -> ())
           in
           List.iter
             (fun (op, (key, bytes)) ->
               match op with
               | 0 ->
                   if not (Swap.is_resident t ~key) then
                     (try ignore (Swap.add t ~key ~bytes)
                      with Invalid_argument _ -> ())
               | 1 -> ignore (Swap.touch t ~key)
               | _ -> Swap.remove t ~key)
             ops;
           Swap.check_invariants t));
  ]


(* --- the silo kit: every silo's guest library and handlers share one
   call-finishing path and one handler prelude ------------------------- *)

module Host = Ava_core.Host

let plan_of load = snd (load ())

(* A stub wired to a server whose only handler answers [fn] with
   [reply], bypassing the silo: the guest library must cope with
   whatever comes back. *)
let canned_pair e plan ~fn reply =
  let stub, server = stub_server_pair e plan in
  Server.register server fn (fun _ _ _ -> reply);
  stub

let ok_no_outs = (0, Wire.Unit, [])
let huge_handle = (0, Wire.Handle Int64.max_int, [])

(* Issue one sync call through a host's stub on a handle the server
   never minted; return (status, rejected delta, executed delta). *)
let stale_call stub server ~fn ~args =
  let rejected = Server.rejected server and executed = Server.executed server in
  let reply = Result.get_ok (Stub.invoke_sync stub ~fn ~args) in
  ( reply.Message.reply_status,
    Server.rejected server - rejected,
    Server.executed server - executed )

let check_stale (status, rejected, executed) =
  Alcotest.(check int) "unknown-handle status" Server.status_unknown_handle
    status;
  Alcotest.(check int) "counted as a rejection" 1 rejected;
  Alcotest.(check int) "not counted as executed" 0 executed

let stale = Wire.Handle 0x4242L

let silo_kit_tests =
  [
    Alcotest.test_case "out-of-range handle fails QA and ST, never wraps"
      `Quick (fun () ->
        let e = Engine.create () in
        let qa =
          canned_pair e (plan_of Host.load_qa_plan) ~fn:"qaStartInstance"
            huge_handle
        in
        let st =
          canned_pair e (plan_of Host.load_st_plan) ~fn:"stStreamCreate"
            huge_handle
        in
        let (module QA) = Ava_core.Qa_remote.create qa in
        let (module ST) = Ava_core.St_remote.create st in
        Engine.run_process e (fun () ->
            Alcotest.(check bool) "qaStartInstance -> Qa_fail" true
              (QA.qaStartInstance ~index:0 = Error Ava_simqa.Types.Qa_fail);
            Alcotest.(check bool) "stStreamCreate -> St_fail" true
              (ST.stStreamCreate () = Error Ava_simst.Types.St_fail)));
    Alcotest.test_case "short reply is an error, never an exception" `Quick
      (fun () ->
        let e = Engine.create () in
        let pair load fn = canned_pair e (plan_of load) ~fn ok_no_outs in
        let (module CL) =
          Ava_core.Cl_remote.create (pair Host.load_cl_plan "clGetContextInfo")
        in
        let (module NC) =
          Ava_core.Nc_remote.create (pair Host.load_nc_plan "mvncGetResult")
        in
        let (module QA) =
          Ava_core.Qa_remote.create (pair Host.load_qa_plan "qaGetNumInstances")
        in
        let (module ST) =
          Ava_core.St_remote.create (pair Host.load_st_plan "stMemcpyDtoH")
        in
        Engine.run_process e (fun () ->
            Alcotest.(check bool) "clGetContextInfo" true
              (Result.is_error (CL.clGetContextInfo 0x1000));
            Alcotest.(check bool) "mvncGetResult" true
              (Result.is_error (NC.mvncGetResult 0x1000));
            Alcotest.(check bool) "qaGetNumInstances" true
              (Result.is_error (QA.qaGetNumInstances ()));
            Alcotest.(check bool) "stMemcpyDtoH" true
              (Result.is_error (ST.stMemcpyDtoH ~size:16 0x1000))));
    Alcotest.test_case "stale handle is a counted rejection in every silo"
      `Quick (fun () ->
        let e = Engine.create () in
        let cl = Host.create_cl_host e in
        let cg = Host.add_cl_vm cl ~name:"cl" in
        let nc = Host.create_nc_host e in
        let ng = Host.add_nc_vm nc ~name:"nc" in
        let qa = Host.create_qa_host e in
        let qg = Host.add_qa_vm qa ~name:"qa" in
        let st = Host.create_st_host e in
        let sg = Host.add_st_vm st ~name:"st" in
        Engine.run_process e (fun () ->
            check_stale
              (stale_call (Option.get cg.Host.g_stub) cl.Host.server
                 ~fn:"clGetContextInfo" ~args:[ stale; Wire.Unit ]);
            check_stale
              (stale_call (Option.get ng.Host.ng_stub) nc.Host.nc_server
                 ~fn:"mvncCloseDevice" ~args:[ stale ]);
            check_stale
              (stale_call (Option.get qg.Host.qg_stub) qa.Host.qa_server
                 ~fn:"qaStopInstance" ~args:[ stale ]);
            check_stale
              (stale_call (Option.get sg.Host.sg_stub) st.Host.st_server
                 ~fn:"stStreamDestroy" ~args:[ stale ])));
    Alcotest.test_case "read-buffer synchrony follows its blocking argument"
      `Quick (fun () ->
        let e = Engine.create () in
        let plan = plan_of Host.load_cl_plan in
        let stub =
          canned_pair e plan ~fn:"clEnqueueReadBuffer"
            (0, Wire.Unit, [ Wire.Blob (Bytes.make 16 'x') ])
        in
        let (module CL) = Ava_core.Cl_remote.create stub in
        let read ~blocking =
          ignore
            (CL.clEnqueueReadBuffer 0x1000 0x1001 ~blocking ~offset:0 ~size:16
               ~wait_list:[] ~want_event:false)
        in
        Engine.run_process e (fun () ->
            read ~blocking:false;
            Alcotest.(check (pair int int)) "non-blocking goes async" (0, 1)
              (Stub.sync_calls stub, Stub.async_calls stub);
            read ~blocking:true;
            Alcotest.(check (pair int int)) "blocking goes sync" (1, 1)
              (Stub.sync_calls stub, Stub.async_calls stub);
            (* The plan alone, without the guest library forcing it. *)
            let args blocking =
              [
                Wire.int 0x1000; Wire.int 0x1001; Wire.int blocking;
                Wire.int 0; Wire.int 16; Wire.Unit; Wire.int 0;
                Wire.List []; Wire.Unit;
              ]
            in
            Alcotest.(check bool) "plan: blocking_read=1 is sync" true
              (Option.is_some
                 (Result.get_ok
                    (Stub.invoke stub ~fn:"clEnqueueReadBuffer" ~args:(args 1))));
            Alcotest.(check bool) "plan: blocking_read=0 is async" true
              (Option.is_none
                 (Result.get_ok
                    (Stub.invoke stub ~fn:"clEnqueueReadBuffer" ~args:(args 0))))));
    Alcotest.test_case "scalar env is total on an arity mismatch" `Quick
      (fun () ->
        let plan =
          Option.get
            (Plan.find (plan_of Host.load_cl_plan) "clEnqueueReadBuffer")
        in
        let sv = Plan.scalars () in
        let sync args =
          Wire.load_scalars sv args;
          Plan.sync_of_scalars plan sv
        in
        Alcotest.(check bool) "no args: blocking_read unbound, sync" true
          (sync []);
        Alcotest.(check bool) "short args bind the prefix" false
          (sync [ Wire.int 1; Wire.int 2; Wire.int 0 ]);
        Alcotest.(check bool) "short args bind the prefix (sync)" true
          (sync [ Wire.int 1; Wire.int 2; Wire.int 1 ]);
        (* Position n holds 64n: blocking_read (position 2) is 128 and
           size (position 4) is 256, 4 bus-byte cost units. *)
        let long = List.init 20 (fun n -> Wire.int (64 * n)) in
        Alcotest.(check bool) "long args: blocking_read=128 is async" false
          (sync long);
        Alcotest.(check (option int)) "long args bind every position"
          (Some 256) (Plan.scalar_at sv 4);
        Alcotest.(check (float 0.0)) "long args: the plan resolves size" 4.0
          (Plan.call_cost plan sv);
        Alcotest.(check (option int)) "a reload forgets old bindings" None
          (Wire.load_scalars sv [ Wire.Unit ];
           Plan.scalar_at sv 4));
  ]

(* The one 64-bit hash kernel behind transfer-cache digests and the
   fault envelope's checksum. *)
module Hash64 = Ava_transport.Hash64
module Faults = Ava_transport.Faults

(* XXH64 (seed 0) read one byte at a time: every multi-byte load is
   assembled from single bytes, so the reference shares no read path
   with the kernel's 8- and 4-byte loads. *)
let xxh64_reference s =
  let p1 = 0x9E3779B185EBCA87L and p2 = 0xC2B2AE3D27D4EB4FL
  and p3 = 0x165667B19E3779F9L and p4 = 0x85EBCA77C2B2AE63L
  and p5 = 0x27D4EB2F165667C5L in
  let ( +: ) = Int64.add and ( *: ) = Int64.mul and xor = Int64.logxor in
  let rotl x r =
    Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))
  in
  let le i k =
    let v = ref 0L in
    for j = k - 1 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code s.[i + j]))
    done;
    !v
  in
  let round acc lane = rotl (acc +: (lane *: p2)) 31 *: p1 in
  let n = String.length s in
  let i = ref 0 in
  let h =
    if n < 32 then p5
    else begin
      let v = [| p1 +: p2; p2; 0L; Int64.neg p1 |] in
      while !i + 32 <= n do
        for l = 0 to 3 do
          v.(l) <- round v.(l) (le (!i + (8 * l)) 8)
        done;
        i := !i + 32
      done;
      let h = rotl v.(0) 1 +: rotl v.(1) 7 +: rotl v.(2) 12 +: rotl v.(3) 18 in
      Array.fold_left (fun h x -> (xor h (round 0L x) *: p1) +: p4) h v
    end
  in
  let h = ref (h +: Int64.of_int n) in
  while !i + 8 <= n do
    h := (rotl (xor !h (round 0L (le !i 8))) 27 *: p1) +: p4;
    i := !i + 8
  done;
  if !i + 4 <= n then begin
    h := (rotl (xor !h (le !i 4 *: p1)) 23 *: p2) +: p3;
    i := !i + 4
  end;
  while !i < n do
    h := rotl (xor !h (le !i 1 *: p5)) 11 *: p1;
    incr i
  done;
  let h = !h in
  let h = xor h (Int64.shift_right_logical h 33) *: p2 in
  let h = xor h (Int64.shift_right_logical h 29) *: p3 in
  xor h (Int64.shift_right_logical h 32)

(* Words [f ()] allocates, minor heap and direct major allocations alike
   (a 1 MiB buffer goes straight to the major heap).  A major allocation
   can start GC work that allocates a few hundred minor words of its
   own, so this takes the least of five runs. *)
let allocated_words f =
  let once () =
    let minor0, promoted0, major0 = Gc.counters () in
    ignore (Sys.opaque_identity (f ()));
    let minor1, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

let hash_tests =
  [
    Alcotest.test_case "published XXH64 vectors" `Quick (fun () ->
        List.iter
          (fun (input, expect) ->
            Alcotest.(check string) (Printf.sprintf "%S" input) expect
              (Printf.sprintf "%016Lx" (Hash64.bytes (Bytes.of_string input))))
          [
            ("", "ef46db3751d8e999");
            ("a", "d24ec4f1a98c6e5b");
            ("abc", "44bc2cf5ad770999");
          ];
        Alcotest.(check bool) "Wire.digest is the kernel" true
          (Int64.equal
             (Wire.digest (Bytes.of_string "abc"))
             (Hash64.bytes (Bytes.of_string "abc"))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"kernel equals a byte-at-a-time reference, lengths 0-300"
         ~count:600
         QCheck.(
           triple (string_of_size Gen.(0 -- 300)) small_nat small_nat)
         (fun (s, pre, post) ->
           (* Hash the string in place inside a larger buffer, so the
              [pos] arithmetic is exercised too. *)
           let pre = pre mod 9 and post = post mod 9 in
           let n = String.length s in
           let buf = Bytes.make (pre + n + post) '\xa5' in
           Bytes.blit_string s 0 buf pre n;
           let expect = xxh64_reference s in
           Int64.equal (Hash64.bytes (Bytes.of_string s)) expect
           && Int64.equal (Hash64.sub buf ~pos:pre ~len:n) expect));
    Alcotest.test_case "sub rejects ranges outside the buffer" `Quick
      (fun () ->
        let b = Bytes.make 16 'x' in
        List.iter
          (fun (pos, len) ->
            Alcotest.check_raises
              (Printf.sprintf "pos %d len %d" pos len)
              (Invalid_argument "Hash64.sub")
              (fun () -> ignore (Hash64.sub b ~pos ~len)))
          [ (-1, 4); (0, -1); (13, 4); (17, 0) ]);
    Alcotest.test_case
      "hashing and unsealing 1 MiB allocate no more than the payload copy"
      `Quick (fun () ->
        let mib = 1 lsl 20 in
        let payload = Bytes.init mib (fun i -> Char.chr ((i * 31) land 255)) in
        let framed = Faults.seal payload in
        Alcotest.(check bool) "payload survives" true
          (match Faults.unseal framed with
          | Some p -> Bytes.equal p payload
          | None -> false);
        let hash_words = allocated_words (fun () -> Hash64.bytes payload) in
        Alcotest.(check bool)
          (Printf.sprintf "hash allocates %.0f words <= 3" hash_words)
          true (hash_words <= 3.0);
        let unseal_words = allocated_words (fun () -> Faults.unseal framed) in
        let copy_words = allocated_words (fun () -> Bytes.sub framed 8 mib) in
        (* The slack absorbs GC bookkeeping; the byte-serial hash this
           replaced allocated 6.4M words here. *)
        Alcotest.(check bool)
          (Printf.sprintf "unseal allocates %.0f words <= copy %.0f + 256"
             unseal_words copy_words)
          true
          (unseal_words <= copy_words +. 256.0);
        Bytes.set framed (mib / 2) '\x00';
        Bytes.set framed ((mib / 2) + 1) '\xff';
        Alcotest.(check bool) "a corrupted frame is rejected" true
          (Option.is_none (Faults.unseal framed)));
  ]

let () =
  Alcotest.run "ava_remoting"
    [
      ("wire", wire_tests);
      ("message", message_tests);
      ("transport", transport_tests);
      ("transport-properties", transport_property_tests);
      ("policy", policy_tests);
      ("stub-server", stub_tests);
      ("transfer-cache", cache_tests);
      ("sva", sva_tests);
      ("router", router_tests);
      ("server", server_tests);
      ("ctx", ctx_tests);
      ("migrate", migrate_tests);
      ("swap", swap_tests);
      ("silo-kit", silo_kit_tests);
      ("hash64", hash_tests);
    ]
