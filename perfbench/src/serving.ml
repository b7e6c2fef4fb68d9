(** The serve-stream workload: [Serve.Server.simulate] over a fixed ladder
    of Poisson rates in virtual time.

    Service times come from a table of real ACROBAT batch latencies
    (simulated device time) for batch sizes 1-16, measured at set-up from
    the compiled TreeLSTM-small catalog model. The light rung exercises
    the batching timers; the overload rung keeps the EDF queue at capacity,
    with shedding and expiry sweeps, and its stream is long enough to
    cross the streaming-stats threshold. *)

open Acrobat
module Server = Serve.Server
module Stats = Serve.Stats
module Admission = Serve.Admission
module Event_loop = Serve.Event_loop

(** Offered load of each rung, requests per simulated second. The last
    rung is the overload rung. *)
let rates = [| 1_000.0; 2_500.0; 4_000.0; 6_000.0; 12_000.0 |]

let () = assert (Array.length rates = Report.serve_rungs)

(** The p99 limit [sim.slo_rate_rps] is judged against. *)
let p99_limit_ms = 10.0

let deadline_us = 25_000.0
let max_batch = 16

let config =
  {
    Server.default_config with
    policy = Serve.Batcher.Adaptive { max_batch; max_wait_us = 2_000.0 };
    queue_capacity = 256;
    deadline_us = Some deadline_us;
  }

(* Set-up: compile and tune the model, then measure the latency table. *)
let setup ~seed =
  let m = (Models.find "treelstm").Models.make Model.Small in
  let weights = Span.with_ "models.gen_weights" (fun () -> m.Model.gen_weights seed) in
  let rng = Rng.create (seed + 1) in
  let calibration = List.init 8 (fun _ -> m.Model.gen_instance rng) in
  let c = Offline.compile m Offline.acrobat ~weights ~calibration in
  (* Batch size [b] runs its own [b] instances, so no single instance
     weighs on every entry. *)
  let rng = Rng.create (seed + 100) in
  let results =
    List.init max_batch (fun i ->
        let instances = List.init (i + 1) (fun _ -> m.Model.gen_instance rng) in
        Span.with_ "serve.table_batch" (fun () -> run c ~weights ~instances ()))
  in
  let table =
    Array.of_list
      (0.0 :: List.map (fun (r : Driver.result) -> r.Driver.stats.latency_ms *. 1000.0) results)
  in
  table, results

let executor table =
  Server.infallible (fun batch ->
      {
        Server.ex_latency_us = table.(List.length batch);
        ex_profiler = None;
        ex_fingerprints = None;
        ex_corrupted = false;
      })

let stream table arrivals =
  let stats =
    Span.with_ "serve.simulate" (fun () ->
        Server.simulate config ~arrivals ~payload:Fun.id ~execute:(executor table))
  in
  stats, Span.with_ "serve.summarize" (fun () -> Stats.summarize stats)

(* Direct drive of the event loop's public API: [n] events scheduled, then
   dispatched. *)
let drive_event_loop n =
  let loop = Event_loop.create (Serve.Clock.create ()) in
  for i = 0 to n - 1 do
    Event_loop.schedule loop ~at:(float_of_int ((i * 7919) mod n)) ignore
  done;
  Event_loop.run loop

(* Direct drive of admission: [n] requests offered against a full queue,
   taken in batches of [max_batch]. *)
let drive_admission n =
  let q = Admission.create ~capacity:config.Server.queue_capacity () in
  for i = 0 to n - 1 do
    let now_us = float_of_int i *. 100.0 in
    ignore
      (Admission.offer q ~now_us
         { Admission.rq_id = i; rq_payload = (); rq_arrival_us = now_us;
           rq_deadline_us = Some (now_us +. deadline_us) });
    if i mod (2 * max_batch) = 0 then ignore (Admission.take q ~now_us ~limit:max_batch)
  done

(* Every arrival of the stream ends completed, shed or expired, and the
   server offered each exactly once. *)
let check_conserved arr (s : Stats.summary) =
  let n = Array.length arr in
  Report.check
    ~what:(Printf.sprintf "%d arrivals: offered %d, completed %d + shed %d + expired %d" n
             s.Stats.s_offered s.Stats.s_completed s.Stats.s_shed s.Stats.s_expired)
    (s.Stats.s_offered = n && s.Stats.s_completed + s.Stats.s_shed + s.Stats.s_expired = n)

let run_workload ~(ms : Measure.t) ~seed ~requests ~reps ~setup_reps =
  (* The overload rung completes under half its requests; its stream is
     twice as long so that its completions cross the streaming-stats
     threshold too. *)
  let lengths = Array.mapi (fun i _ -> if i = Array.length rates - 1 then 2 * requests else requests) rates in
  let arrivals =
    Array.mapi
      (fun i rate ->
        Serve.Traffic.arrivals
          ~rng:(Rng.create ((seed * 31) + i))
          (Serve.Traffic.Poisson { rate_per_s = rate })
          ~n:lengths.(i))
      rates
  in
  (* Warm-up, untimed and before the yardstick first runs: one set-up and
     one stream per rung. The rung figures come from its streams (every
     stream of a rung is identical), then the peak heap, which is so the
     program's own. *)
  let (table, results), per_rung =
    Span.with_ "warmup" @@ fun () ->
    let ((table, _) as setup) = setup ~seed in
    ( setup,
      Array.map
        (fun arr ->
          let ((_, s) as out) = stream table arr in
          check_conserved arr s;
          out)
        arrivals )
  in
  Report.set "peak_heap_mb" (Measure.peak_heap_mb ms);
  let (), setup_s =
    Measure.repeated ms ~reps:setup_reps (fun () ->
        Span.new_unit ();
        Span.with_ "setup" (fun () -> ignore (setup ~seed)))
  in
  Report.set "setup_s" setup_s;
  List.iter
    (fun (name, act) ->
      Report.set name
        (List.fold_left
           (fun acc (r : Driver.result) -> acc +. Offline.ms_of act r.Driver.stats.profiler)
           0.0 results))
    Offline.device_split;
  let alloc = ref 0.0 in
  (* One unit per stream; reps of each rung back to back. *)
  let times =
    Span.with_ "timed" @@ fun () ->
    Array.map
      (fun arr ->
        Measure.median
          (List.init reps (fun _ ->
               Span.new_unit ();
               let (_, s), t =
                 Measure.unit ms (fun () ->
                     let a0 = Measure.allocated_bytes () in
                     let out = stream table arr in
                     alloc := !alloc +. (Measure.allocated_bytes () -. a0);
                     out)
               in
               check_conserved arr s;
               t)))
      arrivals
  in
  let total = reps * Array.fold_left ( + ) 0 lengths in
  Report.set "serve.alloc_kb_per_request" (!alloc /. 1e3 /. float_of_int total);
  Array.iteri
    (fun i (st, s) ->
      Printf.printf
        "rung %d: %.0f req/s offered, p50 %.3f ms, p99 %.3f ms, goodput %.4f, mean batch %.2f, \
         shed %d, expired %d, streaming stats %b, %.4f s per stream\n"
        (i + 1) rates.(i) s.Stats.s_p50_ms s.Stats.s_p99_ms (Stats.goodput s) s.Stats.s_mean_batch
        s.Stats.s_shed s.Stats.s_expired (Stats.streaming_active st) times.(i))
    per_rung;
  let overload_stats, overload = per_rung.(Array.length rates - 1) in
  Report.set "sim_latency_ms" overload.Stats.s_p99_ms;
  Report.set "serve.p50_ms" overload.Stats.s_p50_ms;
  Report.set "serve.goodput" (Stats.goodput overload);
  Report.set "serve.mean_batch" overload.Stats.s_mean_batch;
  Report.set "serve.mean_queue_ms" overload.Stats.s_mean_queue_ms;
  Report.set "serve.shed" (float_of_int overload.Stats.s_shed);
  Report.set "serve.expired" (float_of_int overload.Stats.s_expired);
  let events = Array.fold_left (fun acc (st, _) -> acc + st.Stats.loop_events) 0 per_rung in
  Report.set "serve.loop_events" (float_of_int events);
  let slo =
    Array.fold_left
      (fun best (rate, (_, s)) ->
        if s.Stats.s_p99_ms <= p99_limit_ms && Stats.goodput s >= 0.99 then rate else best)
      0.0
      (Array.map2 (fun r x -> r, x) rates per_rung)
  in
  Report.set "serve.slo_rate_rps" slo;
  (* The serving core's own structures, driven directly at the overload
     stream's event count. *)
  let n = overload_stats.Stats.loop_events in
  let direct name f =
    let times =
      List.init 3 (fun _ ->
          Span.new_unit ();
          snd (Measure.unit ms (fun () -> Span.with_ name (fun () -> f n))))
    in
    Report.set (name ^ "_ops_per_s") (float_of_int n /. Measure.median times)
  in
  direct "serve.event_loop" drive_event_loop;
  direct "serve.admission" drive_admission;
  Measure.break ms;
  Measure.geomean (Array.to_list (Array.mapi (fun i t -> float_of_int lengths.(i) /. t) times))
