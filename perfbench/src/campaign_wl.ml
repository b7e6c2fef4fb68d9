(** The chaos-campaign workload: a fixed-seed campaign over an index range
    (fault probability 0.5, replay check on), checked block by block.

    The timed unit is a block of [Chaos.check_scenario ~check_replay:true]
    calls under [Chaos.with_debug_checks], the check [Chaos.check_one]
    makes. The scenarios are generated at set-up. The simulated figures and
    the per-layer split come from direct drives of the check's two stages,
    [Chaos.run_scenario_full] and [Invariants.check], on every scenario of
    the campaign. *)

open Acrobat
module Stats = Serve.Stats
module Invariants = Chaos.Invariants
module Scenario = Chaos.Scenario

let fault_prob = 0.5

let generate ~seed n =
  Span.with_ "chaos.generate" (fun () ->
      Array.init n (fun i -> Scenario.generate ~campaign_seed:seed ~fault_prob i))

(* The stages of one scenario's check, driven directly: the cluster
   simulation, then the invariant suite on its output. Returns the summary
   and the trace size, or [None] when the simulation raised (the timed
   check reports that as a violation). *)
let drive (sc : Scenario.t) : (Stats.summary * int) option =
  match Span.with_ "chaos.simulate" (fun () -> Chaos.run_scenario_full sc) with
  | exception _ -> None
  | summary, tracer, tenants, peak_replicas ->
    let events = Trace.events tracer in
    Span.with_ "chaos.check" (fun () ->
        ignore
          (Invariants.check
             {
               Invariants.in_requests = Scenario.total_requests sc;
               in_requeue_budget = sc.Scenario.sc_requeue_budget;
               in_goodput_floor = Chaos.derived_floor sc;
               in_summary = summary;
               in_events = events;
               in_tenants = tenants;
               in_retry_budget_frac = sc.Scenario.sc_resilience.Resilience.rs_retry_budget;
               in_brownout = sc.Scenario.sc_resilience.Resilience.rs_brownout;
               in_peak_replicas = peak_replicas;
               in_audit_rate = sc.Scenario.sc_audit;
               in_net = sc.Scenario.sc_net;
             }));
    Some (summary, List.length events)

let check sc =
  Span.with_ "chaos.check_scenario" (fun () -> fst (Chaos.check_scenario ~check_replay:true sc))

(* Scenarios driven before the peak heap is read. One heavy scenario sets
   the peak, and the more scenarios are driven the likelier one is, so a
   peak over the whole campaign jumps from seed to seed. *)
let heap_scenarios = 600

let run_workload ~(ms : Measure.t) ~seed ~blocks ~block ~setup_reps =
  let n = blocks * block in
  (* Warm-up, untimed and before the yardstick first runs: one set-up and
     the direct drives, which give the simulated figures. The peak heap is
     read part way, so it is the program's own. *)
  let scenarios, driven =
    Span.with_ "warmup" @@ fun () ->
    let scenarios = generate ~seed n in
    let drive_range first count =
      Chaos.with_debug_checks (fun () ->
          List.filter_map drive (List.init count (fun i -> scenarios.(first + i))))
    in
    let k = min n heap_scenarios in
    let head = drive_range 0 k in
    Report.set "peak_heap_mb" (Measure.peak_heap_mb ms);
    scenarios, head @ drive_range k (n - k)
  in
  let (), setup_s =
    Measure.repeated ms ~reps:setup_reps (fun () ->
        Span.new_unit ();
        Span.with_ "setup" (fun () -> ignore (generate ~seed n)))
  in
  Report.set "setup_s" setup_s;
  let completed = List.filter (fun ((s : Stats.summary), _) -> s.Stats.s_completed > 0) driven in
  Report.set "sim_latency_ms"
    (Measure.median (List.map (fun ((s : Stats.summary), _) -> s.Stats.s_p99_ms) completed));
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 driven in
  Report.set "chaos.goodput"
    (float_of_int (sum (fun (s, _) -> s.Stats.s_completed))
    /. float_of_int (max 1 (sum (fun (s, _) -> s.Stats.s_offered))));
  Report.set "chaos.trace_events" (float_of_int (sum snd));
  let violations = ref 0 in
  let times =
    Span.with_ "timed" @@ fun () ->
    List.init blocks (fun b ->
        Span.new_unit ();
        let outs, t =
          Measure.unit ms (fun () ->
              Chaos.with_debug_checks (fun () ->
                  List.init block (fun k -> check scenarios.((b * block) + k))))
        in
        List.iteri
          (fun k vs ->
            Report.check
              ~what:(Printf.sprintf "scenario %d violates %s" ((b * block) + k)
                       (String.concat "," (Invariants.names vs)))
              (vs = []);
            violations := !violations + List.length vs)
          outs;
        t)
  in
  Measure.break ms;
  Report.set "chaos.violations" (float_of_int !violations);
  Measure.median (List.map (fun t -> float_of_int block /. t) times)
