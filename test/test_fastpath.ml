(* Tests for the simulator fast path and the multicore experiment driver.

   The fast-path rewrites (the inlined unobserved hit, table-driven
   aggregate addressing, domain fan-out) all promise the same thing:
   *observational identity* — same values, same counters, same bucket times
   (bit-for-bit).  These tests pin that promise, its allocation budgets,
   and the byte encoding of tags that the hot path compares directly as
   chars. *)

module Machine = Ccdsm_tempest.Machine
module Tag = Ccdsm_tempest.Tag
module Engine = Ccdsm_proto.Engine
module Sanitizer = Ccdsm_proto.Sanitizer
module Trace = Ccdsm_tempest.Trace
module Timecap = Ccdsm_tempest.Timecap
module Profile = Ccdsm_rdist.Profile
module Aggregate = Ccdsm_runtime.Aggregate
module Distribution = Ccdsm_runtime.Distribution
module E = Ccdsm_harness.Experiments
module Parjobs = Ccdsm_harness.Parjobs
module Runtime = Ccdsm_runtime.Runtime
module Adaptive = Ccdsm_apps.Adaptive
module Barnes = Ccdsm_apps.Barnes
module Water = Ccdsm_apps.Water

let check = Alcotest.check

(* -- tag byte encoding ------------------------------------------------------- *)

(* The machine's access path compares raw tag bytes ([Tag.to_char]) against
   precomputed constants; this pins the on-the-wire encoding so a reordering
   of the [Tag.t] constructors cannot silently change fault behaviour. *)
let test_tag_bytes () =
  check Alcotest.char "Invalid is \\000" '\000' (Tag.to_char Tag.Invalid);
  check Alcotest.char "Read_only is \\001" '\001' (Tag.to_char Tag.Read_only);
  check Alcotest.char "Read_write is \\002" '\002' (Tag.to_char Tag.Read_write);
  List.iter
    (fun t ->
      check (Alcotest.testable Tag.pp Tag.equal) "roundtrip" t (Tag.of_char (Tag.to_char t)))
    [ Tag.Invalid; Tag.Read_only; Tag.Read_write ]

(* -- observational equality helpers ------------------------------------------ *)

let counters_equal c1 c2 =
  let open Machine in
  c1.local_reads = c2.local_reads
  && c1.local_writes = c2.local_writes
  && c1.read_faults = c2.read_faults
  && c1.write_faults = c2.write_faults
  && c1.msgs = c2.msgs && c1.bytes = c2.bytes
  && c1.invalidations = c2.invalidations
  && c1.downgrades = c2.downgrades

(* Bucket times must agree *exactly*: the inlined hit must reproduce the
   out-of-line path's float accumulation bit for bit. *)
let machines_equal ~nodes ~words ~a1 ~a2 m1 m2 =
  let ok = ref true in
  for node = 0 to nodes - 1 do
    if not (counters_equal (Machine.counters m1 ~node) (Machine.counters m2 ~node)) then
      ok := false;
    List.iter
      (fun b ->
        if Machine.bucket_time m1 ~node b <> Machine.bucket_time m2 ~node b then ok := false)
      Machine.all_buckets;
    for b = 0 to Machine.num_blocks m1 - 1 do
      if not (Tag.equal (Machine.tag m1 ~node b) (Machine.tag m2 ~node b)) then ok := false
    done
  done;
  for i = 0 to words - 1 do
    if Machine.peek m1 (a1 + i) <> Machine.peek m2 (a2 + i) then ok := false
  done;
  !ok

(* -- the inlined access path = the out-of-line one ---------------------------- *)

(* [read]/[write] inline only the unobserved hit; an attached observer, even
   one that implements no hook, sends every access through the out-of-line
   path.  The same random word accesses from random nodes (and barriers) on
   an unobserved machine and on such an observed one must return the same
   values and leave the same counters, bucket times, tags and memory.  So
   must a sanitizer-only machine, whose hits are audited in line, and a
   sanitized one that a no-op subscriber keeps on the observed path: the
   two raise the same violations (writes from two nodes race), with the
   same history, and see the same number of events.  A violating write
   stores nothing, so the sanitized pair is held to the unsanitized pair
   only while no violation has occurred. *)
let test_inlined_equals_observed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"inlined read/write = observed path"
       QCheck2.Gen.(list_size (0 -- 60) (quad (0 -- 3) (0 -- 64) bool (0 -- 1000)))
       (fun ops ->
         let mk watch =
           let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
           let eng, _ = Engine.stache m in
           let a0 = Machine.alloc m ~words:16 ~home:0 in
           for h = 1 to 3 do
             ignore (Machine.alloc m ~words:16 ~home:h)
           done;
           for i = 0 to 63 do
             Machine.poke m (a0 + i) (float_of_int i)
           done;
           (m, a0, watch m eng)
         in
         let sanitize m eng = Some (Sanitizer.attach ~dir:eng.Engine.dir m) in
         let m1, a1, _ = mk (fun _ _ -> None)
         and m2, a2, _ =
           mk (fun m _ ->
               ignore (Machine.observe m Machine.no_observer : unit -> unit);
               None)
         and m3, a3, s3 = mk sanitize
         and m4, a4, s4 =
           mk (fun m eng ->
               Machine.subscribe m ignore;
               sanitize m eng)
         in
         (* Word 64 is a barrier. *)
         let step m a (node, i, write, v) =
           if i = 64 then (Machine.barrier m ~bucket:Machine.Synch; 0.0)
           else if write then (Machine.write m ~node (a + i) (float_of_int v); 0.0)
           else Machine.read m ~node (a + i)
         in
         let sanitized m a op =
           match step m a op with
           | v -> Ok v
           | exception Sanitizer.Violation v ->
               Error (v.Sanitizer.check, v.Sanitizer.message, List.map Trace.to_json v.Sanitizer.history)
         in
         let clean = ref true in
         List.iter
           (fun op ->
             let v1 = step m1 a1 op and v2 = step m2 a2 op in
             let r3 = sanitized m3 a3 op and r4 = sanitized m4 a4 op in
             if v1 <> v2 then QCheck2.Test.fail_report "returned values differ";
             if r3 <> r4 then QCheck2.Test.fail_report "sanitized values or violations differ";
             match r3 with
             | Error _ -> clean := false
             | Ok v3 -> if !clean && v3 <> v1 then QCheck2.Test.fail_report "sanitized value differs")
           ops;
         let seen s = Sanitizer.events_seen (Option.get s) in
         if seen s3 <> seen s4 then QCheck2.Test.fail_report "sanitizers saw different event counts";
         if not (machines_equal ~nodes:4 ~words:64 ~a1 ~a2 m1 m2) then
           QCheck2.Test.fail_report "counters/bucket times/tags/memory differ";
         if not (machines_equal ~nodes:4 ~words:64 ~a1:a3 ~a2:a4 m3 m4) then
           QCheck2.Test.fail_report "sanitized counters/bucket times/tags/memory differ";
         if !clean && not (machines_equal ~nodes:4 ~words:64 ~a1 ~a2:a3 m1 m3) then
           QCheck2.Test.fail_report "a clean sanitized run differs from the unsanitized one";
         true))

(* -- aggregate address tables ------------------------------------------------ *)

(* The precomputed per-element tables must match the Distribution functions
   plus the creation-time allocation layout: node regions allocated in node
   order, each rounded up to whole cache blocks, element [i]'s field [f] at
   [base(owner) + rank * elem_words + f], and the element's block homed at
   its owner. *)
let expected_bases m ~nodes counts_of_node =
  let wpb = Machine.words_per_block m in
  let round_up w = (w + wpb - 1) / wpb * wpb in
  let bases = Array.make nodes 0 in
  let next = ref 0 in
  for node = 0 to nodes - 1 do
    bases.(node) <- !next;
    next := !next + round_up (max 1 (counts_of_node node))
  done;
  bases

let check_agg_1d ~nodes ~n ~elem_words dist =
  let m = Machine.create (Machine.default_config ~num_nodes:nodes ~block_bytes:32 ()) in
  let agg = Aggregate.create_1d m ~name:"t1" ~elem_words ~n ~dist () in
  let bases =
    expected_bases m ~nodes (fun node ->
        Distribution.owned_count1 dist ~nodes ~n ~node * elem_words)
  in
  for i = 0 to n - 1 do
    let o = Distribution.owner1 dist ~nodes ~n i in
    let r = Distribution.rank1 dist ~nodes ~n i in
    check Alcotest.int "owner1" o (Aggregate.owner1 agg i);
    for f = 0 to elem_words - 1 do
      check Alcotest.int "addr1" (bases.(o) + (r * elem_words) + f) (Aggregate.addr1 agg i ~field:f)
    done;
    check Alcotest.int "homed at owner" o
      (Machine.home m (Machine.block_of m (Aggregate.addr1 agg i ~field:0)))
  done

let check_agg_2d ~nodes ~rows ~cols ~elem_words dist =
  let m = Machine.create (Machine.default_config ~num_nodes:nodes ~block_bytes:32 ()) in
  let agg = Aggregate.create_2d m ~name:"t2" ~elem_words ~rows ~cols ~dist () in
  let bases =
    expected_bases m ~nodes (fun node ->
        Distribution.owned_count2 dist ~nodes ~rows ~cols ~node * elem_words)
  in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let o = Distribution.owner2 dist ~nodes ~rows ~cols i j in
      let r = Distribution.rank2 dist ~nodes ~rows ~cols i j in
      check Alcotest.int "owner2" o (Aggregate.owner2 agg i j);
      for f = 0 to elem_words - 1 do
        check Alcotest.int "addr2"
          (bases.(o) + (r * elem_words) + f)
          (Aggregate.addr2 agg i j ~field:f)
      done;
      check Alcotest.int "homed at owner" o
        (Machine.home m (Machine.block_of m (Aggregate.addr2 agg i j ~field:0)))
    done
  done

let test_aggregate_tables () =
  List.iter
    (fun (nodes, n, elem_words, dist) -> check_agg_1d ~nodes ~n ~elem_words dist)
    [
      (1, 7, 1, Distribution.Block1d);
      (4, 16, 3, Distribution.Block1d);
      (4, 13, 2, Distribution.Block1d);
      (4, 16, 1, Distribution.Cyclic);
      (3, 17, 4, Distribution.Cyclic);
    ];
  List.iter
    (fun (nodes, rows, cols, elem_words, dist) -> check_agg_2d ~nodes ~rows ~cols ~elem_words dist)
    [
      (4, 8, 8, 1, Distribution.Row_block);
      (4, 10, 6, 4, Distribution.Row_block);
      (4, 8, 8, 2, Distribution.Tiled { pr = 2; pc = 2 });
      (6, 9, 10, 3, Distribution.Tiled { pr = 2; pc = 3 });
    ]

(* -- multicore driver determinism -------------------------------------------- *)

let test_parjobs_order () =
  let xs = List.init 100 Fun.id in
  check
    Alcotest.(list int)
    "results in input order"
    (List.map (fun x -> x * x) xs)
    (Parjobs.map ~jobs:4 (fun x -> x * x) xs)

let test_parjobs_error () =
  (* The first failure *by input order* is the one re-raised, regardless of
     which domain hits its failure first. *)
  Alcotest.check_raises "first input-order failure" (Failure "boom10") (fun () ->
      ignore
        (Parjobs.map ~jobs:4
           (fun x -> if x >= 10 then failwith (Printf.sprintf "boom%d" x) else x)
           (List.init 20 (fun i -> i + 1))))

(* -- observers -------------------------------------------------------------- *)

(* The sanitizer takes completed accesses through the machine's typed hook
   and keeps them unboxed in its history ring, so a sanitized hit allocates
   exactly what an unobserved one does: the box [Sys.opaque_identity] puts
   on a read's float, and nothing for a write.  Each loop runs once first,
   so the sanitizer's tables have grown before the count. *)
let test_sanitized_alloc () =
  let machine ~sanitized =
    let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
    let eng, _ = Engine.stache m in
    if sanitized then ignore (Sanitizer.attach ~dir:eng.Engine.dir m);
    (m, Machine.alloc m ~words:512 ~home:0)
  in
  let loops =
    [
      ( "10,000 read hits",
        fun m a ->
          for i = 0 to 9_999 do
            ignore (Sys.opaque_identity (Machine.read m ~node:0 (a + (i land 511))))
          done );
      ( "10,000 write hits",
        fun m a ->
          for i = 0 to 9_999 do
            Machine.write m ~node:0 (a + (i land 511)) 1.0
          done );
    ]
  in
  List.iter
    (fun (name, loop) ->
      let words ~sanitized =
        let m, a = machine ~sanitized in
        loop m a;
        let before = Gc.minor_words () in
        loop m a;
        int_of_float (Gc.minor_words () -. before)
      in
      check Alcotest.int name (words ~sanitized:false) (words ~sanitized:true))
    loops

(* The unobserved access path allocates nothing: [read] and [write] inline
   at the call site, so a read hit's float goes straight into the sum and a
   computed value is stored without being boxed.  The budget assumes the
   workspace's release profile: under -opaque (dune's dev profile) nothing
   inlines across modules, and every read boxes its result. *)
let test_unobserved_alloc () =
  let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
  ignore (Engine.stache m);
  let a = Machine.alloc m ~words:512 ~home:0 in
  let sum = ref 0.0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    sum := !sum +. Machine.read m ~node:0 (a + (i land 511))
  done;
  for i = 0 to 9_999 do
    Machine.write m ~node:0 (a + (i land 511)) (!sum +. float_of_int i)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sum);
  if words > 16.0 then Alcotest.failf "10,000 reads and 10,000 writes allocated %.0f words" words

(* Whole app runs stay under one minor word per simulated access: the apps
   reach the machine through inlined accessors, and only faults, phases and
   setup allocate.  Each app runs once first, so memoized setup (the C**
   skeleton compile) is not counted.  Same release-profile assumption as
   above. *)
let test_app_alloc () =
  let run_app name run =
    let words_per_access () =
      let rt =
        Runtime.create
          ~cfg:(Machine.default_config ~num_nodes:8 ~block_bytes:1024 ())
          ~protocol:Runtime.Stache ()
      in
      let before = Gc.minor_words () in
      run rt;
      let words = Gc.minor_words () -. before in
      let c = Machine.total_counters (Runtime.machine rt) in
      words /. float_of_int (c.Machine.local_reads + c.Machine.local_writes)
    in
    ignore (words_per_access ());
    let w = words_per_access () in
    if w >= 1.0 then Alcotest.failf "%s: %.2f minor words per access" name w
  in
  run_app "adaptive" (fun rt -> ignore (Adaptive.run rt Adaptive.small));
  run_app "barnes" (fun rt -> ignore (Barnes.run rt Barnes.small));
  run_app "water" (fun rt -> ignore (Water.run rt Water.small));
  run_app "water-splash" (fun rt -> ignore (Water.run_splash rt Water.small))

(* Detaching the timeline collector or finishing a profile removes its
   observer, so the machine is back on the unobserved path. *)
let test_detach_unobserves () =
  let m = Machine.create (Machine.default_config ~num_nodes:4 ~block_bytes:32 ()) in
  ignore (Engine.stache m);
  let cap = Timecap.attach m in
  check Alcotest.bool "timeline collector observes" true (Machine.observed m);
  Timecap.detach cap;
  check Alcotest.bool "unobserved after Timecap.detach" false (Machine.observed m);
  let c = Profile.attach ~app:"t" ~protocol:"stache" ~arena_blocks:64 m in
  check Alcotest.bool "profile collector observes" true (Machine.observed m);
  ignore (Profile.finish c);
  check Alcotest.bool "unobserved after Profile.finish" false (Machine.observed m)

let test_jobs_byte_identical () =
  (* Empty the cell memo before each render, so both job counts simulate
     every cell instead of the second reading the first one's results. *)
  let render jobs =
    Ccdsm_harness.Cell.reset ();
    E.render (E.fig5 ~num_nodes:8 ~jobs E.Scaled)
  in
  check Alcotest.string "fig5 jobs=1 = jobs=4" (render 1) (render 4)

let suite =
  [
    ( "fastpath",
      [
        Alcotest.test_case "tag byte encoding pinned" `Quick test_tag_bytes;
        test_inlined_equals_observed;
        Alcotest.test_case "aggregate address tables" `Quick test_aggregate_tables;
        Alcotest.test_case "parjobs preserves order" `Quick test_parjobs_order;
        Alcotest.test_case "parjobs deterministic error" `Quick test_parjobs_error;
        Alcotest.test_case "sanitized accesses allocate nothing extra" `Quick
          test_sanitized_alloc;
        Alcotest.test_case "unobserved read/write hits allocate nothing" `Quick
          test_unobserved_alloc;
        Alcotest.test_case "app runs allocate under a word per access" `Quick test_app_alloc;
        Alcotest.test_case "detach leaves the machine unobserved" `Quick test_detach_unobserves;
        Alcotest.test_case "figure text identical across job counts" `Slow
          test_jobs_byte_identical;
      ] );
  ]
