(** The online inference server simulation.

    Wires the pieces together on one virtual timeline: a {!Traffic} trace
    delivers requests to {!Admission}; whenever the (single, serially
    executed) device is free, the {!Batcher} decides to launch or wait; a
    launched batch runs through a caller-supplied executor — in production
    glue, {!Acrobat_engines.Driver.run_batch} on the compiled model — whose
    simulated latency occupies the device until completion; {!Stats}
    accounts every request's queue wait, compute time and outcome.

    The server is polymorphic in the request payload and knows nothing
    about models or engines: tests drive it with synthetic executors, the
    [Acrobat.serve_model] glue with real compiled programs. Determinism:
    given the same arrival trace and a deterministic executor, two
    simulations produce identical stats (event ties dispatch in scheduling
    order; no wall clock; the only RNG is the fault-tolerance jitter stream,
    seeded from the config and drawn from only on failures).

    {b Fault tolerance.} An executor may report {!Exec_fault} instead of an
    outcome; the server then drives the batch to a resolution in which every
    request either completes or is provably poisonous:

    - {e retry}: transient failures re-execute after exponential backoff
      with seeded jitter, up to [max_retries] attempts;
    - {e bisection}: a batch that keeps failing is split in half and each
      half resolved independently (with a fresh retry budget), isolating a
      deterministic poison request in O(log n) extra launches so only it is
      dropped while the rest of the batch completes;
    - {e circuit breaker}: after [breaker_threshold] consecutive failed
      attempts the server stops launching and sheds arrivals at admission
      until a cooldown passes; the first batch after cooldown is a probe
      whose success closes the breaker (and whose failure re-opens it);
    - {e graceful degradation}: a device OOM halves the effective batch-size
      cap, and sustained queue pressure switches the executor to its
      degraded (e.g. early-exit) variant; both restore as pressure clears. *)

module Profiler = Acrobat_device.Profiler
module Cost_model = Acrobat_device.Cost_model
module Rng = Acrobat_tensor.Rng
module Trace = Acrobat_obs.Trace
module Metrics = Acrobat_obs.Metrics
module Json = Acrobat_obs.Json
module Resilience = Acrobat_resilience.Policy
module Budget = Acrobat_resilience.Budget
module Limiter = Acrobat_resilience.Limiter
module Brownout = Acrobat_resilience.Brownout

(** Knobs of the recovery machinery. The defaults keep every behaviour that
    could alter a fault-free run disabled ([degrade_high_frac = infinity]),
    so a simulation that never sees a fault is bit-identical to one run
    against a server without the fault layer. *)
type tolerance = {
  max_retries : int;  (** Re-executions of a failed batch before bisecting. *)
  backoff_base_us : float;  (** First retry delay. *)
  backoff_mult : float;  (** Delay multiplier per subsequent retry. *)
  jitter_frac : float;  (** Uniform +/- fraction applied to each delay. *)
  breaker_threshold : int;  (** Consecutive failures that open the breaker. *)
  breaker_cooldown_us : float;  (** Open time before the probe launch. *)
  degrade_high_frac : float;
      (** Queue occupancy (fraction of capacity) that enters degraded mode;
          [infinity] disables pressure-triggered degradation. *)
  degrade_low_frac : float;  (** Occupancy below which degradation lifts. *)
  min_max_batch : int;  (** Floor for OOM-driven batch shrinking. *)
  ft_seed : int;  (** Seeds the jitter RNG. *)
}

let default_tolerance =
  {
    max_retries = 2;
    backoff_base_us = 200.0;
    backoff_mult = 2.0;
    jitter_frac = 0.25;
    breaker_threshold = 4;
    breaker_cooldown_us = 20_000.0;
    degrade_high_frac = infinity;
    degrade_low_frac = 0.25;
    min_max_batch = 1;
    ft_seed = 0x5eed;
  }

type config = {
  policy : Batcher.policy;
  queue_capacity : int;
  deadline_us : float option;
      (** Relative per-request deadline; queued requests past it are
          dropped, not executed. *)
  cost : Cost_model.t;  (** Seeds the adaptive latency model. *)
  tolerance : tolerance;
  resilience : Resilience.config;
      (** Overload-control knobs (retry budget, adaptive concurrency,
          brownout); {!Resilience.off} by default, which makes every
          resilience path a no-op. *)
}

let default_config =
  {
    policy = Batcher.Adaptive { max_batch = 16; max_wait_us = 2_000.0 };
    queue_capacity = 256;
    deadline_us = None;
    cost = Cost_model.default;
    tolerance = default_tolerance;
    resilience = Resilience.off;
  }

(** What one successful batch execution reports back. *)
type exec_outcome = {
  ex_latency_us : float;  (** Simulated device busy time for the batch. *)
  ex_profiler : Profiler.t option;  (** Merged into the run's profile. *)
  ex_fingerprints : int64 array option;
      (** Per-request result fingerprints, in batch order (raw
          {!Acrobat_runtime.Fingerprint} words — the serve layer stays
          engine-agnostic). [None] when the executor does not compute
          values; the audit path then falls back to [ex_corrupted]. *)
  ex_corrupted : bool;
      (** Injector ground truth: this attempt's outputs were silently
          corrupted. Only a fault-injecting executor can set it. Feeds the
          delivered-corruption accounting the audit-shield oracle checks;
          detection itself uses fingerprints whenever they are present. *)
}

(** Verdict of one batch execution attempt. *)
type exec_result =
  | Exec_ok of exec_outcome
  | Exec_fault of {
      ef_latency_us : float;  (** Device time the failed attempt burned. *)
      ef_reason : string;
      ef_transient : bool;
          (** A retry may succeed. [false] (a deterministic failure such as
              OOM or a poison request) skips straight to bisection. *)
      ef_oom : bool;  (** Out-of-memory: shrink the batch-size cap. *)
      ef_reset : bool;
          (** A full device reset. The single server treats it like any
              transient fault; the cluster's health monitor weighs
              consecutive resets as a stronger down signal. *)
    }

(** Sampled audit re-execution: the detection arm of the silent-data-
    corruption defense. Each delivered request is, with probability
    [au_rate], re-executed {e unbatched} on a trusted reference engine and
    its fingerprint compared before delivery. A mismatch is detected
    corruption: the reference result is delivered in place of the suspect
    one (the request survives; its latency grows by the re-execution).
    Audits run off the serving device, so a sampled request's delivery is
    delayed but the batch pipeline never stalls. *)
type 'a auditor = {
  au_rate : float;  (** Per-request sampling probability in [0, 1]. *)
  au_seed : int;
      (** Seeds the sampling RNG — independent of every other stream, so
          arming the auditor perturbs no legacy RNG draw. *)
  au_reference : int -> 'a -> int64 * float;
      (** [au_reference id payload] returns the reference fingerprint and
          the unbatched re-execution latency (us) charged to the audited
          request. *)
}

(** One request's delivery verdict after the (optional) sampled audit. *)
type audit_delivery = {
  ad_extra_us : float;  (** Audit latency added before this delivery. *)
  ad_audited : bool;
  ad_clean : bool;  (** Audit verdict; [true] when unaudited. *)
}

let no_audit = { ad_extra_us = 0.0; ad_audited = false; ad_clean = true }

(** Audit one request of a successfully executed batch. [forced] bypasses
    sampling (quarantine probes must be audited to prove cleanliness).
    Shared by the single server, the cluster replica and the tenancy
    dispatcher so all three detect and count identically. With no auditor
    armed this draws nothing and returns {!no_audit}. *)
let audit_request (auditor : 'a auditor option) ~audit_rng ~(stats : Stats.t) ~forced
    ~(outcome : exec_outcome) ~index (r : 'a Admission.request) : audit_delivery =
  match auditor with
  | Some a when forced || (a.au_rate > 0.0 && Rng.float audit_rng < a.au_rate) ->
    stats.Stats.audits <- stats.Stats.audits + 1;
    let ref_fp, ref_latency_us = a.au_reference r.Admission.rq_id r.Admission.rq_payload in
    let clean =
      match outcome.ex_fingerprints with
      | Some fps -> Int64.equal fps.(index) ref_fp
      | None -> not outcome.ex_corrupted
    in
    if not clean then stats.Stats.audit_mismatches <- stats.Stats.audit_mismatches + 1;
    { ad_extra_us = Float.max 0.0 ref_latency_us; ad_audited = true; ad_clean = clean }
  | _ -> no_audit

(** Ground-truth delivered-corruption accounting for one request: corrupted
    outputs reached a client iff the batch attempt was corrupted and the
    audit did not intercept this particular request. *)
let note_delivery (stats : Stats.t) ~(outcome : exec_outcome) (d : audit_delivery) =
  if outcome.ex_corrupted && not (d.ad_audited && not d.ad_clean) then
    stats.Stats.corrupted_delivered <- stats.Stats.corrupted_delivered + 1

(* Trace track convention: tid 0 is the device/batch track of each server's
   pid; request [i] rides on tid [i + 1]. *)
let req_tid id = id + 1

let policy_max_batch = function
  | Batcher.Batch1 -> 1
  | Batcher.Fixed { max_batch; _ } | Batcher.Adaptive { max_batch; _ } -> max_batch

(* --- The device lane ---

   One serially executing device behind its own admission queue and
   batcher: the state the single server and every cluster {!Replica} share,
   with the functions that act on it. The owner adds its failure policy on
   top: the circuit breaker here, health and failover in the replica. *)

type 'a lane = {
  config : config;
  loop : Event_loop.t;
  queue : 'a Admission.t;
  batcher : Batcher.t;
  stats : Stats.t;
  execute : degraded:bool -> 'a list -> exec_result;
  auditor : 'a auditor option;
  audit_rng : Rng.t;  (** Audit sampling; drawn from only when an auditor is armed. *)
  ft_rng : Rng.t;  (** Backoff jitter; drawn from only on retries. *)
  policy_max_batch : int;  (** The policy's own cap (1 for batch1). *)
  mutable cur_max_batch : int;  (** Effective cap; shrinks under OOM. *)
  mutable degraded : bool;
  mutable device_busy : bool;
  mutable wake : unit -> unit;  (** The owner's launch check. *)
  expired : 'a Admission.request list -> unit;
      (** The owner's sink for requests found past their deadline. *)
  tracer : Trace.t;  (** Lifecycle span sink; {!Trace.null} when off. *)
  pid : int option;  (** Trace pid of the device; [None] emits on the ambient one. *)
  (* Overload-resilience mechanisms; all [None] (no-ops) unless armed via
     [config.resilience]. *)
  budget : Budget.t option;
  limiter : Limiter.t option;
  brownout : Brownout.t option;
  limit_gauge : Metrics.gauge;  (** Limiter trajectory export. *)
}

(* Device [id]'s lane. Its RNG streams are offset by [id], so device 0
   draws exactly the single server's streams: what makes a one-replica
   cluster byte-identical to it. *)
let create_lane ?(metrics = Metrics.null) ?auditor ~tracer ~pid ~id ~loop
    (config : config) ~execute ~expired =
  let pmax = policy_max_batch config.policy in
  let rs = config.resilience in
  {
    config;
    loop;
    queue =
      Admission.create
        ~eager_sweep:(Resilience.active rs)
        ~capacity:config.queue_capacity ();
    batcher = Batcher.create ~cost:config.cost config.policy;
    stats = Stats.create ();
    execute;
    auditor;
    audit_rng =
      Rng.create (match auditor with Some a -> a.au_seed + (id * 104729) | None -> 0);
    ft_rng = Rng.create (config.tolerance.ft_seed + (id * 7919));
    policy_max_batch = pmax;
    cur_max_batch = pmax;
    degraded = false;
    device_busy = false;
    wake = ignore;
    expired;
    tracer;
    pid;
    budget = Option.map (fun frac -> Budget.create ~frac) rs.Resilience.rs_retry_budget;
    limiter =
      Option.map
        (fun target_us -> Limiter.create ~target_us ())
        rs.Resilience.rs_target_delay_us;
    brownout = Option.map Brownout.create rs.Resilience.rs_brownout;
    limit_gauge =
      (* Register only when the limiter is armed: a legacy run's metrics
         export must not grow a new instrument. *)
      (if rs.Resilience.rs_target_delay_us <> None then
         Metrics.gauge metrics "resilience.limit"
       else Metrics.gauge Metrics.null "resilience.limit");
  }

(* Feed the queue-delay signal (age of the oldest queued request) into the
   limiter's AIMD loop and the brownout controller. Called at each batch
   launch: both mechanisms key on the delay the queue actually produced.
   A no-op unless the resilience layer armed one of them. *)
let observe_pressure (ln : 'a lane) ~now_us =
  match ln.limiter, ln.brownout with
  | None, None -> ()
  | _ ->
    let delay_us =
      match Admission.oldest_arrival_us ln.queue with
      | Some t0 -> now_us -. t0
      | None -> 0.0
    in
    Option.iter
      (fun lim ->
        Limiter.observe lim ~delay_us;
        Metrics.set ln.limit_gauge (Limiter.limit lim))
      ln.limiter;
    Option.iter
      (fun b ->
        match Brownout.observe b ~now_us ~delay_us with
        | Brownout.Stay -> ()
        | Brownout.Engage ->
          ln.stats.Stats.brownouts <- ln.stats.Stats.brownouts + 1;
          Trace.instant ln.tracer ~name:"brownout_degrade" ~cat:"resilience" ?pid:ln.pid
            ~tid:0 ~ts_us:now_us
            ~args:[ "delay_us", Json.Float delay_us ]
        | Brownout.Restore ->
          ln.stats.Stats.brownout_restores <- ln.stats.Stats.brownout_restores + 1;
          Trace.instant ln.tracer ~name:"brownout_restore" ~cat:"resilience" ?pid:ln.pid
            ~tid:0 ~ts_us:now_us
            ~args:[ "delay_us", Json.Float delay_us ])
      ln.brownout

let browned_out (ln : 'a lane) =
  match ln.brownout with Some b -> Brownout.engaged b | None -> false

(* OOM is deterministic for a given batch size: retrying the same size would
   fail forever, so halve the cap before the batch is re-resolved. *)
let shrink_batches (ln : 'a lane) =
  ln.degraded <- true;
  ln.cur_max_batch <- max ln.config.tolerance.min_max_batch (ln.cur_max_batch / 2)

(* Pressure relief after a success: once the queue is quiet again, double
   the batch cap back toward full strength; degraded mode lifts when fully
   restored. *)
let restore_batches (ln : 'a lane) =
  if ln.degraded then begin
    let occupancy =
      float_of_int (Admission.length ln.queue) /. float_of_int ln.config.queue_capacity
    in
    if occupancy <= ln.config.tolerance.degrade_low_frac then begin
      if ln.cur_max_batch < ln.policy_max_batch then
        ln.cur_max_batch <- min ln.policy_max_batch (ln.cur_max_batch * 2);
      if ln.cur_max_batch >= ln.policy_max_batch then ln.degraded <- false
    end
  end

(* The batcher's verdict on a non-empty queue, capped by the OOM-shrunk
   batch size: how many requests to launch now, or [0] after scheduling a
   wake for the batcher's deadline. *)
let launch_limit (ln : 'a lane) ~now_us =
  match
    Batcher.decide ln.batcher ~now_us ~queue_len:(Admission.length ln.queue)
      ~oldest_arrival_us:(Option.get (Admission.oldest_arrival_us ln.queue))
  with
  | Batcher.Wait_until at when at > now_us ->
    Event_loop.schedule ln.loop ~at ln.wake;
    0
  | Batcher.Wait_until _ ->
    (* A wait that is already due would re-fire at this same virtual
       instant forever; treat it as a flush of whatever is queued. *)
    min (Admission.length ln.queue) ln.cur_max_batch
  | Batcher.Flush limit -> min limit ln.cur_max_batch

(* Pop the next batch of at most [limit] requests, feeding the pressure
   signal first. *)
let take_batch (ln : 'a lane) ~now_us ~limit =
  observe_pressure ln ~now_us;
  let batch, dropped = Admission.take_with_expired ln.queue ~now_us ~limit in
  ln.expired dropped;
  batch

(** How a lane disposed of an offered request. *)
type admit = Admitted | Shed_queue | Shed_limit

(* Offer a request to the lane. The adaptive concurrency limiter gates ahead
   of the bounded queue: admitting past the limit would only grow the delay
   it is trying to control. An admission past the high-water mark enters degraded mode,
   and the launch check is deferred to a same-time event rather than
   decided inline: events tie-break in scheduling order, so every arrival
   at this virtual instant is queued before the check runs and
   simultaneous requests coalesce into one batch. *)
let offer (ln : 'a lane) ~now_us (r : 'a Admission.request) : admit =
  match ln.limiter with
  | Some lim when not (Limiter.admits lim ~queued:(Admission.length ln.queue)) ->
    ln.stats.Stats.limit_shed <- ln.stats.Stats.limit_shed + 1;
    Shed_limit
  | _ ->
    let admitted, swept = Admission.offer_swept ln.queue ~now_us r in
    ln.expired swept;
    if not admitted then Shed_queue
    else begin
      let tol = ln.config.tolerance in
      if
        (not ln.degraded)
        && float_of_int (Admission.length ln.queue)
           >= tol.degrade_high_frac *. float_of_int ln.config.queue_capacity
      then ln.degraded <- true;
      Event_loop.schedule ln.loop ~at:now_us ln.wake;
      Admitted
    end

(* Account one successful attempt on the lane (batcher latency model, batch
   stats, the batch span) and deliver each request through the sampled
   audit gate ([forced] audits every request): a mismatch swaps in the
   reference result, so the request is saved at the cost of the unbatched
   re-execution's latency. With no auditor armed this is draw-free and
   delivery is exactly the legacy path. [each ~done_us r d] then sees every
   request with its audit verdict and its own delivery time. *)
let deliver (ln : 'a lane) ~forced ~now_us ~done_us ~degraded (outcome : exec_outcome)
    batch ~each =
  let size = List.length batch in
  Batcher.observe_batch ln.batcher ~size ~latency_us:outcome.ex_latency_us;
  Stats.note_batch ln.stats ~size ~profiler:outcome.ex_profiler;
  if degraded then ln.stats.Stats.degraded_batches <- ln.stats.Stats.degraded_batches + 1;
  if outcome.ex_corrupted then
    ln.stats.Stats.corrupted_batches <- ln.stats.Stats.corrupted_batches + 1;
  Trace.complete ln.tracer ~name:"batch" ~cat:"serve" ?pid:ln.pid ~tid:0 ~ts_us:now_us
    ~dur_us:outcome.ex_latency_us
    ~args:[ "size", Json.Int size; "degraded", Json.Bool degraded ];
  List.iteri
    (fun i (r : _ Admission.request) ->
      let d =
        audit_request ln.auditor ~audit_rng:ln.audit_rng ~stats:ln.stats ~forced ~outcome
          ~index:i r
      in
      note_delivery ln.stats ~outcome d;
      if d.ad_audited then
        Trace.instant ln.tracer
          ~name:(if d.ad_clean then "audit_ok" else "audit_mismatch")
          ~cat:"integrity" ?pid:ln.pid ~tid:(req_tid r.Admission.rq_id) ~ts_us:done_us
          ~args:[ "id", Json.Int r.Admission.rq_id ];
      let r_done_us = done_us +. d.ad_extra_us in
      Stats.record_fields ln.stats ~id:r.Admission.rq_id
        ~arrival_us:r.Admission.rq_arrival_us ~start_us:now_us ~done_us:r_done_us
        ~batch_size:size;
      Trace.complete ln.tracer ~name:"queue" ~cat:"request" ?pid:ln.pid
        ~tid:(req_tid r.Admission.rq_id) ~ts_us:r.Admission.rq_arrival_us
        ~dur_us:(now_us -. r.Admission.rq_arrival_us);
      each ~done_us:r_done_us r d)
    batch

(* --- The batch-resolution core ---

   One state machine drives a launched batch to a resolution, in which
   every request completes or is provably poisonous, for the single
   server, the cluster replica and the tenancy dispatcher alike: attempt,
   fault accounting, retry after seeded exponential backoff under the
   retry budget, and bisection. What an outcome means to the caller comes
   in through the hooks. The device stays busy throughout (retries,
   backoff waits and bisection halves execute serially, preserving
   determinism). *)

type ('b, 'p) resolver = {
  rv_loop : Event_loop.t;
  rv_tracer : Trace.t;
  rv_pid : int option;  (** Track of the batch, retry and bisect events. *)
  rv_tol : tolerance;
  rv_jitter : Rng.t;  (** Backoff jitter; drawn from only on retries. *)
  rv_budget : Budget.t option;  (** Retry tokens; a dry budget sheds the batch. *)
  rv_sinks : Stats.t list;  (** Receive the fault, retry and bisection counters. *)
  rv_delay_us : float;  (** Device time before the first attempt (a model swap). *)
  rv_payload : 'b -> 'p;
  rv_degraded : unit -> bool;  (** Run this attempt on the degraded executor? *)
  rv_execute : degraded:bool -> 'p list -> exec_result;
  rv_fence : unit -> unit -> bool;
      (** Called as a resolution starts. The returned probe turns false once
          that resolution is stale; its pending continuations then no-op. *)
  rv_ok :
    now_us:float ->
    done_us:float ->
    degraded:bool ->
    exec_outcome ->
    'b list ->
    unit ->
    unit;
      (** A successful attempt, at launch time. Returns what to run at
          [done_us], ahead of the continuation. *)
  rv_fault : oom:bool -> unit;  (** A failed attempt, before its [batch_fault] span. *)
  rv_escalate : freed_us:float -> oom:bool -> reset:bool -> (unit -> unit) option;
      (** After the span. [Some f] takes the batch over: [f] runs at
          [freed_us] in place of any retry or bisection. *)
  rv_shed : freed_us:float -> 'b list -> unit -> unit;
      (** The retry budget refused the batch. Returns what to run at
          [freed_us], ahead of the continuation. *)
  rv_poisoned : 'b -> unit;  (** Bisection isolated this request. *)
}

(* Hook values for callers with no fence or no deferred action; both are
   closed, so a resolver built from them allocates nothing per batch. *)
let always () = true
let unfenced () = always
let nothing () = ()
let fence live f () = if live () then f ()

let count (rv : _ resolver) f = List.iter f rv.rv_sinks

(* Drive [batch] to a resolution, then run [k] at the virtual time the last
   attempt finished. *)
let rec resolve_after (rv : ('b, 'p) resolver) ~delay_us (batch : 'b list)
    ~(k : unit -> unit) =
  let live = rv.rv_fence () in
  (* Extract payloads once per resolution, not per retry attempt: the
     batch is fixed for the whole retry/backoff cycle. *)
  let payloads = List.map rv.rv_payload batch in
  let rec attempt ~retries_left ~backoff_us () =
    let now_us = Event_loop.now rv.rv_loop in
    let degraded = rv.rv_degraded () in
    (* The executor builds a fresh device whose profiler clock starts at
       zero; anchor its trace spans at this attempt's launch time. *)
    Trace.set_context rv.rv_tracer ?pid:rv.rv_pid ~tid:0 ~base_us:now_us;
    match rv.rv_execute ~degraded payloads with
    | Exec_ok outcome ->
      let done_us = now_us +. Float.max 0.0 outcome.ex_latency_us in
      let settle = rv.rv_ok ~now_us ~done_us ~degraded outcome batch in
      Event_loop.schedule rv.rv_loop ~at:done_us (fun () ->
          if live () then begin
            settle ();
            (* [settle] may itself fence the device off (a quarantine
               verdict); the rest of the batch, such as a bisection's other
               half, then belongs to wherever it was requeued. *)
            if live () then k ()
          end)
    | Exec_fault f -> (
      count rv (fun s -> s.Stats.fault_batches <- s.Stats.fault_batches + 1);
      rv.rv_fault ~oom:f.ef_oom;
      let freed_us = now_us +. Float.max 0.0 f.ef_latency_us in
      Trace.complete rv.rv_tracer ~name:"batch_fault" ~cat:"fault" ?pid:rv.rv_pid ~tid:0
        ~ts_us:now_us ~dur_us:f.ef_latency_us
        ~args:
          [
            "reason", Json.Str f.ef_reason;
            "transient", Json.Bool f.ef_transient;
            "size", Json.Int (List.length batch);
          ];
      match rv.rv_escalate ~freed_us ~oom:f.ef_oom ~reset:f.ef_reset with
      | Some take_over ->
        Event_loop.schedule rv.rv_loop ~at:freed_us (fence live take_over)
      | None when f.ef_transient && retries_left > 0 -> (
        let size = List.length batch in
        (* The retry-budget check precedes the jitter draw: with no budget
           configured the RNG stream is untouched relative to a budget-less
           run, and a denied retry draws nothing. *)
        match rv.rv_budget with
        | Some b when not (Budget.try_spend b size) ->
          (* Budget dry: retrying would amplify load the device already
             cannot absorb. Shed the batch instead of bisecting — bisection
             is itself re-offered load. *)
          let settle = rv.rv_shed ~freed_us batch in
          Event_loop.schedule rv.rv_loop ~at:freed_us
            (fence live (fun () ->
                 settle ();
                 k ()))
        | budget ->
          count rv (fun s ->
              if Option.is_some budget then
                s.Stats.retried_requests <- s.Stats.retried_requests + size;
              s.Stats.retries <- s.Stats.retries + 1);
          let tol = rv.rv_tol in
          let jitter =
            1.0 +. (tol.jitter_frac *. ((2.0 *. Rng.float rv.rv_jitter) -. 1.0))
          in
          let at = freed_us +. Float.max 0.0 (backoff_us *. jitter) in
          Trace.instant rv.rv_tracer ~name:"retry" ~cat:"fault" ?pid:rv.rv_pid ~tid:0
            ~ts_us:at
            ~args:[ "attempt", Json.Int (tol.max_retries - retries_left + 1) ];
          Event_loop.schedule rv.rv_loop ~at
            (fence live
               (attempt ~retries_left:(retries_left - 1)
                  ~backoff_us:(backoff_us *. tol.backoff_mult))))
      | None ->
        (* Retries exhausted (or the failure is deterministic): isolate. *)
        Event_loop.schedule rv.rv_loop ~at:freed_us
          (fence live (fun () -> bisect rv batch ~k)))
  in
  let retries_left = rv.rv_tol.max_retries and backoff_us = rv.rv_tol.backoff_base_us in
  if delay_us > 0.0 then
    Event_loop.schedule rv.rv_loop ~at:(Event_loop.now rv.rv_loop +. delay_us)
      (attempt ~retries_left ~backoff_us)
  else attempt ~retries_left ~backoff_us ()

(* Binary fault isolation. A single survivor of repeated failure is the
   poison: drop it alone. Larger batches split in half; each half gets a
   fresh retry budget (and no first-attempt delay) so transient noise during
   isolation does not condemn innocent requests. *)
and bisect rv batch ~k =
  match batch with
  | [] -> k ()
  | [ r ] ->
    rv.rv_poisoned r;
    k ()
  | _ ->
    count rv (fun s -> s.Stats.bisections <- s.Stats.bisections + 1);
    Trace.instant rv.rv_tracer ~name:"bisect" ~cat:"fault" ?pid:rv.rv_pid ~tid:0
      ~ts_us:(Event_loop.now rv.rv_loop)
      ~args:[ "size", Json.Int (List.length batch) ];
    let half = List.length batch / 2 in
    let left = List.filteri (fun i _ -> i < half) batch in
    let right = List.filteri (fun i _ -> i >= half) batch in
    resolve_after rv ~delay_us:0.0 left ~k:(fun () ->
        resolve_after rv ~delay_us:0.0 right ~k)

let resolve rv batch ~k = resolve_after rv ~delay_us:rv.rv_delay_us batch ~k

(* The resolver of a lane's own device; the owner supplies the hooks. *)
let lane_resolver (ln : 'a lane) ~fence ~ok ~fault ~escalate ~shed ~poisoned :
    ('a Admission.request, 'a) resolver =
  {
    rv_loop = ln.loop;
    rv_tracer = ln.tracer;
    rv_pid = ln.pid;
    rv_tol = ln.config.tolerance;
    rv_jitter = ln.ft_rng;
    rv_budget = ln.budget;
    rv_sinks = [ ln.stats ];
    rv_delay_us = 0.0;
    rv_payload = (fun (r : _ Admission.request) -> r.Admission.rq_payload);
    rv_degraded = (fun () -> ln.degraded || browned_out ln);
    rv_execute = ln.execute;
    rv_fence = fence;
    rv_ok = ok;
    rv_fault = fault;
    rv_escalate = escalate;
    rv_shed = shed;
    rv_poisoned = poisoned;
  }

(* --- The single server: a lane plus a circuit breaker --- *)

type breaker_state =
  | Closed
  | Open of { until_us : float }  (** Shedding; probe allowed from [until_us]. *)
  | Half_open  (** Probe in flight; its verdict closes or re-opens. *)

type 'a state = {
  ln : 'a lane;
  mutable consecutive_failures : int;
  mutable breaker : breaker_state;
}

(* Request-terminal instant: every admitted id ends in exactly one of
   done / expired / poisoned / retry_budget (shed ids terminate at
   admission). *)
let trace_terminal tracer ~name ~ts_us (r : _ Admission.request) =
  Trace.instant tracer ~name ~cat:"request" ~ts_us ~tid:(req_tid r.Admission.rq_id)
    ~args:[ "id", Json.Int r.Admission.rq_id ]

let open_breaker (st : 'a state) =
  let now_us = Event_loop.now st.ln.loop in
  let until_us = now_us +. st.ln.config.tolerance.breaker_cooldown_us in
  st.breaker <- Open { until_us };
  st.ln.stats.Stats.breaker_opens <- st.ln.stats.Stats.breaker_opens + 1;
  Trace.instant st.ln.tracer ~name:"breaker_open" ~cat:"fault" ~tid:0 ~ts_us:now_us
    ~args:[ "until_us", Json.Float until_us ];
  (* Self-wake at cooldown expiry: with arrivals shed while open, no other
     event may exist to trigger the probe. *)
  Event_loop.schedule st.ln.loop ~at:until_us st.ln.wake

let note_failure (st : 'a state) =
  st.consecutive_failures <- st.consecutive_failures + 1;
  match st.breaker with
  | Half_open -> open_breaker st (* failed probe: back to shedding *)
  | Closed when st.consecutive_failures >= st.ln.config.tolerance.breaker_threshold ->
    open_breaker st
  | Closed | Open _ -> ()

let note_success (st : 'a state) =
  st.consecutive_failures <- 0;
  (match st.breaker with Closed -> () | Open _ | Half_open -> st.breaker <- Closed);
  restore_batches st.ln

let server_resolver (st : 'a state) =
  let ln = st.ln in
  let settle () = note_success st in
  let each ~done_us r _ = trace_terminal ln.tracer ~name:"done" ~ts_us:done_us r in
  lane_resolver ln ~fence:unfenced
    ~ok:(fun ~now_us ~done_us ~degraded outcome batch ->
      deliver ln ~forced:false ~now_us ~done_us ~degraded outcome batch ~each;
      settle)
    ~fault:(fun ~oom ->
      note_failure st;
      if oom then shrink_batches ln)
    ~escalate:(fun ~freed_us:_ ~oom:_ ~reset:_ -> None)
    ~shed:(fun ~freed_us batch ->
      ln.stats.Stats.retry_shed <- ln.stats.Stats.retry_shed + List.length batch;
      List.iter (trace_terminal ln.tracer ~name:"retry_budget" ~ts_us:freed_us) batch;
      nothing)
    ~poisoned:(fun r ->
      ln.stats.Stats.poisoned <- ln.stats.Stats.poisoned + 1;
      trace_terminal ln.tracer ~name:"poisoned" ~ts_us:(Event_loop.now ln.loop) r)

(* One pass of the launch decision; called whenever the device frees up, a
   request arrives, a batcher timeout fires, or the breaker cooldown ends.
   Idempotent: spurious wakes fall through. *)
let rec maybe_launch (st : 'a state) rv =
  let ln = st.ln in
  if not ln.device_busy then begin
    let now_us = Event_loop.now ln.loop in
    match st.breaker with
    | Half_open -> () (* unreachable while device_busy is accurate; be safe *)
    | Open { until_us } ->
      if now_us >= until_us && not (Admission.is_empty ln.queue) then begin
        (* Probe: a single request tests whether the device recovered. *)
        st.breaker <- Half_open;
        Trace.instant ln.tracer ~name:"breaker_probe" ~cat:"fault" ~tid:0 ~ts_us:now_us;
        flush st rv ~now_us ~limit:1
      end
    | Closed ->
      if not (Admission.is_empty ln.queue) then begin
        let limit = launch_limit ln ~now_us in
        if limit > 0 then flush st rv ~now_us ~limit
      end
  end

and flush (st : 'a state) rv ~now_us ~limit =
  let ln = st.ln in
  match take_batch ln ~now_us ~limit with
  | [] ->
    (* Everything popped had expired; the queue may still hold work. *)
    maybe_launch st rv
  | batch ->
    ln.device_busy <- true;
    resolve rv batch ~k:(fun () ->
        ln.device_busy <- false;
        maybe_launch st rv)

let on_arrival (st : 'a state) (r : 'a Admission.request) =
  let ln = st.ln in
  let now_us = Event_loop.now ln.loop in
  Batcher.observe_arrival ln.batcher ~now_us;
  Trace.instant ln.tracer ~name:"admit" ~cat:"request" ~tid:(req_tid r.Admission.rq_id)
    ~ts_us:now_us
    ~args:[ "id", Json.Int r.Admission.rq_id ];
  match st.breaker with
  | Open { until_us } when now_us < until_us ->
    (* Breaker open: shed at the door without queueing — launching is
       pointless while the device is presumed down. *)
    ln.stats.Stats.breaker_shed <- ln.stats.Stats.breaker_shed + 1;
    trace_terminal ln.tracer ~name:"shed_breaker" ~ts_us:now_us r
  | Closed | Half_open | Open _ -> (
    match offer ln ~now_us r with
    | Shed_limit -> trace_terminal ln.tracer ~name:"shed_limit" ~ts_us:now_us r
    | Shed_queue -> trace_terminal ln.tracer ~name:"shed" ~ts_us:now_us r
    | Admitted -> Option.iter Budget.deposit ln.budget)

(** Schedule request [i]'s arrival at [arrivals.(i)] with payload
    [payload i] and [config]'s per-request deadline; [on_arrival] receives
    it at that virtual instant. *)
let schedule_arrivals loop (config : config) ~(arrivals : float array) ~payload
    on_arrival =
  Array.iteri
    (fun i at ->
      let r =
        {
          Admission.rq_id = i;
          rq_payload = payload i;
          rq_arrival_us = at;
          rq_deadline_us = Option.map (fun d -> at +. d) config.deadline_us;
        }
      in
      Event_loop.schedule loop ~at (fun () -> on_arrival r))
    arrivals

(** Run [loop] to completion, snapshotting [stats] into [metrics] every
    [every_us] of virtual time on the way. The snapshot chain rides the
    event loop itself and stops rescheduling once it is the only pending
    work, so the loop still drains. *)
let run_with_snapshots loop ~metrics ~every_us (stats : Stats.t) =
  if Metrics.enabled metrics then begin
    let rec snap () =
      Stats.to_metrics stats metrics;
      Metrics.snapshot metrics ~ts_us:(Event_loop.now loop);
      if Event_loop.pending loop > 0 then
        Event_loop.schedule_after loop ~delay:every_us snap
    in
    Event_loop.schedule_after loop ~delay:every_us snap
  end;
  Event_loop.run loop

(** Run the simulation to completion.

    [arrivals] gives each request's arrival time (monotone, from
    {!Traffic.arrivals}); [payload i] builds request [i]'s inputs;
    [execute] runs one assembled batch — under the server's current
    [degraded] flag — and reports its verdict. Returns the populated
    {!Stats.t} (summarize with {!Stats.summarize}).

    [tracer] receives the request-lifecycle and batch spans (and, when the
    executor threads it into its device, kernel-level spans); [metrics]
    receives periodic virtual-clock snapshots every [snapshot_every_us]
    plus the final counters. Both default to disabled sinks with no effect
    on the simulation or its output. *)
let simulate ?(tracer = Trace.null) ?(metrics = Metrics.null)
    ?(snapshot_every_us = 10_000.0) ?auditor (config : config)
    ~(arrivals : float array) ~(payload : int -> 'a)
    ~(execute : degraded:bool -> 'a list -> exec_result) : Stats.t =
  let loop = Event_loop.create (Clock.create ()) in
  let expired =
    List.iter (fun r ->
        trace_terminal tracer ~name:"expired" ~ts_us:(Event_loop.now loop) r)
  in
  let ln =
    create_lane ~metrics ?auditor ~tracer ~pid:None ~id:0 ~loop config ~execute ~expired
  in
  let st = { ln; consecutive_failures = 0; breaker = Closed } in
  let rv = server_resolver st in
  ln.wake <- (fun () -> maybe_launch st rv);
  if Trace.enabled tracer then begin
    Trace.name_process tracer ~pid:0 ~name:"server";
    Trace.name_thread tracer ~pid:0 ~tid:0 ~name:"device"
  end;
  schedule_arrivals loop config ~arrivals ~payload (on_arrival st);
  run_with_snapshots loop ~metrics ~every_us:snapshot_every_us ln.stats;
  ln.stats.Stats.shed <- Admission.shed_count ln.queue;
  ln.stats.Stats.expired <- Admission.expired_count ln.queue;
  ln.stats.Stats.end_us <- Event_loop.now loop;
  ln.stats.Stats.clamped_schedules <- Event_loop.clamped_count loop;
  ln.stats.Stats.loop_events <- Event_loop.dispatched loop;
  Stats.to_metrics ln.stats metrics;
  ln.stats

(** Lift a plain (infallible) executor into the fault-aware signature;
    convenience for tests and fault-free callers. *)
let infallible (f : 'a list -> exec_outcome) : degraded:bool -> 'a list -> exec_result =
 fun ~degraded:_ batch -> Exec_ok (f batch)
