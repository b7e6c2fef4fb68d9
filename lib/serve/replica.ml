(** One member of a serving cluster: a device behind its own admission
    queue, batcher and recovery machinery, coordinating with the cluster
    through callbacks instead of owning terminal request accounting.

    A replica is a {!Server.lane} (queue, batcher, OOM batch-cap shrinking,
    pressure degradation, overload resilience) driven by the same
    batch-resolution core as the single server (retry with seeded backoff
    jitter, bisection to isolate poison — {!Server.resolve}), with two
    structural differences:

    - {e Terminal outcomes are reported, not owned.} Completions, expiries,
      poison drops and cancellations flow to the cluster through
      {!callbacks}, which keeps per-request-id accounting (a hedged request
      has several copies; only the first completion counts) in one place.
      The replica still records everything {e it} executed into its own
      {!Stats.t}, so per-replica utilization stays observable.
    - {e The circuit breaker is replaced by failover.} Where the single
      server opens a breaker and sheds arrivals, a replica that crosses the
      failure threshold (or the stricter consecutive-reset threshold) goes
      {!Down}: it aborts the in-flight resolution, drains its queue, and
      hands every unresolved request back to the cluster for re-dispatch to
      healthy peers. After the cooldown it turns {!Probing} and the cluster
      routes it a single live request; success re-admits it.

    Determinism: all state transitions run on the shared virtual
    {!Event_loop}; the only RNG is the per-replica backoff jitter stream
    (seeded from the tolerance seed and the replica id, drawn only on
    retries). Stale events from an aborted resolution are fenced by an
    epoch counter rather than cancellation. *)

module Trace = Acrobat_obs.Trace
module Json = Acrobat_obs.Json

(** Health as the cluster's dispatcher sees it. {!Quarantined} is the
    integrity analogue of {!Down}: the replica is {e functionally} alive —
    batches complete without faults — but the audit scoreboard has caught it
    silently corrupting results, so it is fenced off exactly like a dead
    replica (drain + epoch-fenced requeue) until audited probes prove it
    clean again. *)
type health = Up | Probing | Down | Quarantined

let health_name = function
  | Up -> "up"
  | Probing -> "probing"
  | Down -> "down"
  | Quarantined -> "quarantined"

(** How the replica reports to the cluster. All callbacks fire at the
    virtual instant of the underlying event. *)
type 'a callbacks = {
  cb_live : 'a Admission.request -> bool;
      (** False when the request already completed elsewhere (hedge copy
          whose winner finished): the replica drops it unexecuted. *)
  cb_completed :
    replica:int ->
    'a Admission.request list ->
    size:int ->
    start_us:float ->
    done_us:float ->
    unit;  (** A batch finished; the cluster dedupes per request id. *)
  cb_cancelled : replica:int -> 'a Admission.request -> unit;
      (** A queued copy was dropped because its winner already completed. *)
  cb_expired : replica:int -> 'a Admission.request list -> unit;
      (** Requests dropped by this replica's queue as past deadline. *)
  cb_poisoned : replica:int -> 'a Admission.request -> unit;
      (** Bisection isolated this request as the deterministic batch-killer. *)
  cb_down : replica:int -> 'a Admission.request list -> unit;
      (** The replica failed over; these queued + in-flight requests drain
          back for re-dispatch. *)
  cb_quarantined : replica:int -> 'a Admission.request list -> unit;
      (** The corruption scoreboard quarantined the replica; these queued
          requests drain back for re-dispatch (in-flight results were
          already delivered — audit-corrected where caught — before
          containment fired). *)
  cb_retry_shed : replica:int -> 'a Admission.request list -> unit;
      (** The retry budget ran dry mid-resolution; these requests were shed
          instead of retried (never fires unless a budget is armed). *)
  cb_probe_ready : replica:int -> unit;
      (** Cooldown passed; the replica accepts a single probe request. *)
  cb_up : replica:int -> unit;  (** A probe succeeded; healthy again. *)
}

type 'a t = {
  id : int;
  ln : 'a Server.lane;
      (** The device. Traces on pid [id + 1] of the shared cluster tracer
          (pid 0 is the dispatcher). *)
  reset_threshold : int;  (** Consecutive device resets that force failover. *)
  cb : 'a callbacks;
  mutable busy_until_us : float;  (** Estimated device-free time (for LEL dispatch). *)
  mutable health : health;
  mutable consecutive_failures : int;
  mutable consecutive_resets : int;
  mutable health_score : float;  (** EWMA of batch-attempt success in [0, 1]. *)
  mutable corrupt_score : float;
      (** EWMA of audit {e mismatch} in [0, 1]; crossing the threshold
          quarantines the replica. Fed only by audit verdicts, so with no
          auditor it stays 0 forever. *)
  mutable quarantine_probing : bool;
      (** Probing to exit quarantine (vs failover): probe batches are
          force-audited and re-admission needs consecutive clean verdicts —
          a merely-completing probe proves liveness, not integrity. *)
  mutable clean_probes : int;  (** Consecutive clean audited probes so far. *)
  mutable outstanding : 'a Admission.request list;
      (** The in-flight batch's unresolved requests; requeued on failover. *)
  mutable epoch : int;  (** Bumped on failover; stale continuations no-op. *)
}

let score_alpha = 0.2

(* Corruption-scoreboard constants. The EWMA is fed 1.0 per audit mismatch
   and 0.0 per clean audit; with alpha 0.3 and threshold 0.5, one mismatch
   (score 0.3) is tolerated as a possible one-off upset while two in a row
   (0.3 -> 0.51) quarantine the replica. Re-admission needs
   [quarantine_clean_probes] consecutive clean force-audited probes. *)
let corrupt_alpha = 0.3
let corrupt_threshold = 0.5
let quarantine_clean_probes = 2

let id t = t.id
let health t = t.health
let health_score t = t.health_score
let corrupt_score t = t.corrupt_score
let stats t = t.ln.stats
let admission t = t.ln.queue
let queue_length t = Admission.length t.ln.queue
let is_busy t = t.ln.device_busy

(** Fencing epoch: bumped on every failover, so each Down transition is
    observable and stale continuations from the aborted resolution no-op.
    Exposed for the health-transition property tests. *)
let epoch t = t.epoch

(** Expected time for one more request to clear this replica: remaining
    busy time plus the batcher's learned latency for the queue it would
    join. The least-expected-latency dispatch policy minimizes this. *)
let expected_latency_us t ~now_us =
  let residual =
    if t.ln.device_busy then Float.max 0.0 (t.busy_until_us -. now_us) else 0.0
  in
  residual
  +. Batcher.estimated_latency_us t.ln.batcher ~batch:(Admission.length t.ln.queue + 1)

(** Can the dispatcher hand this replica a probe right now? One request at
    a time: an occupied probing replica already has its verdict pending. *)
let wants_probe t =
  t.health = Probing && (not t.ln.device_busy) && Admission.is_empty t.ln.queue

let note_attempt t ~ok =
  t.health_score <-
    ((1.0 -. score_alpha) *. t.health_score) +. (score_alpha *. if ok then 1.0 else 0.0)

let note_success t =
  t.consecutive_failures <- 0;
  t.consecutive_resets <- 0;
  note_attempt t ~ok:true;
  (* A quarantine probe proves nothing by merely completing — corruption is
     silent — so re-admission from quarantine is decided by the audit
     verdicts (see [note_audit]), never here. *)
  if t.health = Probing && not t.quarantine_probing then begin
    t.health <- Up;
    t.ln.stats.Stats.readmitted <- t.ln.stats.Stats.readmitted + 1;
    Trace.instant t.ln.tracer ~name:"readmit" ~cat:"cluster" ?pid:t.ln.pid ~tid:0
      ~ts_us:(Event_loop.now t.ln.loop);
    t.cb.cb_up ~replica:t.id
  end;
  Server.restore_batches t.ln

(* --- Fencing: failover and quarantine --- *)

(* Fence the replica off. Failover and quarantine share the mechanics:
   bump the epoch so events of the aborted resolution no-op, drain the
   queue, hand every unresolved request back to the cluster through
   [requeue], and after the cooldown open the probe window (announced as
   [probe_ready]) unless something else moved the replica out of
   [health] meanwhile. *)
let fence_off t ~health ~cat ~name ~args ~requeue ~probe_ready ~on_probe =
  let ln = t.ln in
  let now_us = Event_loop.now ln.loop in
  t.epoch <- t.epoch + 1;
  t.health <- health;
  ln.device_busy <- false;
  t.consecutive_failures <- 0;
  t.consecutive_resets <- 0;
  Trace.instant ln.tracer ~name ~cat ?pid:ln.pid ~tid:0 ~ts_us:now_us ~args;
  let queued, expired = Admission.drain ln.queue ~now_us in
  ln.expired expired;
  let unresolved = t.outstanding @ queued in
  t.outstanding <- [];
  requeue ~replica:t.id unresolved;
  let at = now_us +. ln.config.tolerance.breaker_cooldown_us in
  Event_loop.schedule ln.loop ~at (fun () ->
      if t.health = health then begin
        t.health <- Probing;
        on_probe ();
        Trace.instant ln.tracer ~name:probe_ready ~cat ?pid:ln.pid ~tid:0
          ~ts_us:(Event_loop.now ln.loop);
        t.cb.cb_probe_ready ~replica:t.id
      end)

(* Failover: abort the in-flight resolution and hand its requests, with the
   queue, back for re-dispatch to healthy peers. *)
let go_down t =
  let stats = t.ln.stats in
  stats.Stats.breaker_opens <- stats.Stats.breaker_opens + 1;
  stats.Stats.failovers <- stats.Stats.failovers + 1;
  fence_off t ~health:Down ~cat:"cluster" ~name:"failover"
    ~args:[ "replica", Json.Int t.id ]
    ~requeue:t.cb.cb_down ~probe_ready:"probe_ready" ~on_probe:ignore

(* Quarantine: structurally a failover, but triggered by integrity evidence
   on a replica that is otherwise completing batches happily — and exited
   only through force-audited probes, not a merely-successful one. *)
let go_quarantine t =
  t.quarantine_probing <- false;
  t.clean_probes <- 0;
  t.ln.stats.Stats.quarantines <- t.ln.stats.Stats.quarantines + 1;
  fence_off t ~health:Quarantined ~cat:"integrity" ~name:"quarantine"
    ~args:[ "replica", Json.Int t.id; "score", Json.Float t.corrupt_score ]
    ~requeue:t.cb.cb_quarantined ~probe_ready:"quarantine_probe_ready"
    ~on_probe:(fun () ->
      t.quarantine_probing <- true;
      t.clean_probes <- 0)

let quarantine_restore t =
  t.health <- Up;
  t.quarantine_probing <- false;
  t.clean_probes <- 0;
  t.corrupt_score <- 0.0;
  t.ln.stats.Stats.quarantine_restores <- t.ln.stats.Stats.quarantine_restores + 1;
  Trace.instant t.ln.tracer ~name:"quarantine_restore" ~cat:"integrity"
    ?pid:t.ln.pid ~tid:0
    ~ts_us:(Event_loop.now t.ln.loop)
    ~args:[ "replica", Json.Int t.id ];
  t.cb.cb_up ~replica:t.id

(* One audit verdict lands on the scoreboard. Crossing the mismatch
   threshold from Up quarantines; during quarantine probing, a mismatch
   re-quarantines immediately while consecutive clean verdicts re-admit. *)
let note_audit t ~clean =
  t.corrupt_score <-
    ((1.0 -. corrupt_alpha) *. t.corrupt_score) +. (if clean then 0.0 else corrupt_alpha);
  match t.health with
  | Up when (not clean) && t.corrupt_score >= corrupt_threshold -> go_quarantine t
  | Probing when t.quarantine_probing ->
    if clean then begin
      t.clean_probes <- t.clean_probes + 1;
      if t.clean_probes >= quarantine_clean_probes then quarantine_restore t
    end
    else go_quarantine t
  | _ -> ()

(* --- Batch resolution --- *)

(* The replica's hooks into the shared resolution core. Terminal outcomes
   go to the cluster; a failover takes the batch over; every scheduled
   continuation is fenced by the epoch current when its resolution began,
   so events of a resolution aborted by a failover no-op instead of
   corrupting the next one. *)
let resolver (t : 'a t) =
  let ln = t.ln in
  let forget batch =
    t.outstanding <-
      List.filter (fun (r : _ Admission.request) -> not (List.memq r batch)) t.outstanding
  in
  Server.lane_resolver ln
    ~fence:(fun () ->
      let epoch = t.epoch in
      fun () -> t.epoch = epoch)
    ~ok:(fun ~now_us ~done_us ~degraded outcome batch ->
      t.busy_until_us <- done_us;
      (* Sampled (or, on quarantine probes, forced) audits decide each
         request's delivery. *)
      let deliveries = ref [] in
      Server.deliver ln ~forced:t.quarantine_probing ~now_us ~done_us ~degraded outcome
        batch ~each:(fun ~done_us:_ r d -> deliveries := (r, d) :: !deliveries);
      let deliveries = List.rev !deliveries in
      let size = List.length batch in
      (* Report the completion at [done_us], not at launch: the cluster
         must consider these requests in flight until the device actually
         finishes, or a hedge could never outrun a straggling batch. *)
      fun () ->
        forget batch;
        (match ln.auditor with
        | None -> t.cb.cb_completed ~replica:t.id batch ~size ~start_us:now_us ~done_us
        | Some _ ->
          (* Audited requests deliver later by their audit latency; report
             per request so the cluster records true end-to-end times. *)
          List.iter
            (fun (r, (d : Server.audit_delivery)) ->
              t.cb.cb_completed ~replica:t.id [ r ] ~size ~start_us:now_us
                ~done_us:(done_us +. d.ad_extra_us))
            deliveries);
        note_success t;
        (* Feed the verdicts to the corruption scoreboard only after the
           (audit-corrected) results left the replica: containment fences
           future work, never a delivery the audit saved. *)
        List.iter
          (fun (_, (d : Server.audit_delivery)) ->
            if d.ad_audited then note_audit t ~clean:d.ad_clean)
          deliveries)
    ~fault:(fun ~oom:_ -> ())
    ~escalate:(fun ~freed_us ~oom ~reset ->
      note_attempt t ~ok:false;
      t.consecutive_failures <- t.consecutive_failures + 1;
      if reset then t.consecutive_resets <- t.consecutive_resets + 1;
      if oom then Server.shrink_batches ln;
      t.busy_until_us <- freed_us;
      if
        t.health = Probing (* a failed probe downs the replica immediately *)
        || t.consecutive_failures >= ln.config.tolerance.breaker_threshold
        || t.consecutive_resets >= t.reset_threshold
      then Some (fun () -> go_down t)
      else None)
    ~shed:(fun ~freed_us:_ batch ->
      ln.stats.Stats.retry_shed <- ln.stats.Stats.retry_shed + List.length batch;
      forget batch;
      fun () -> t.cb.cb_retry_shed ~replica:t.id batch)
    ~poisoned:(fun r ->
      ln.stats.Stats.poisoned <- ln.stats.Stats.poisoned + 1;
      forget [ r ];
      t.cb.cb_poisoned ~replica:t.id r)

(* The server's launch decision, gated by health: Down and Quarantined
   replicas never launch; Probing replicas launch a single-request probe. *)
let rec maybe_launch (t : 'a t) rv =
  let ln = t.ln in
  if (not ln.device_busy) && not (Admission.is_empty ln.queue) then begin
    let now_us = Event_loop.now ln.loop in
    match t.health with
    | Down | Quarantined -> ()
    | Probing -> flush t rv ~now_us ~limit:1
    | Up ->
      let limit = Server.launch_limit ln ~now_us in
      if limit > 0 then flush t rv ~now_us ~limit
  end

and flush (t : 'a t) rv ~now_us ~limit =
  let ln = t.ln in
  let live = Server.take_batch ln ~now_us ~limit in
  (* Lazy hedge cancellation: copies whose winner already completed are
     dropped here, unexecuted — the cheap form of "cancel". *)
  let live, cancelled = List.partition t.cb.cb_live live in
  List.iter (fun r -> t.cb.cb_cancelled ~replica:t.id r) cancelled;
  match live with
  | [] -> maybe_launch t rv (* the queue may still hold work *)
  | batch ->
    ln.device_busy <- true;
    t.outstanding <- batch;
    Server.resolve rv batch ~k:(fun () ->
        ln.device_busy <- false;
        t.outstanding <- [];
        maybe_launch t rv)

let create ?(tracer = Trace.null) ?auditor ~id ~loop ~(config : Server.config)
    ~reset_threshold ~(execute : degraded:bool -> 'a list -> Server.exec_result)
    ~(cb : 'a callbacks) () : 'a t =
  let expired = function [] -> () | rs -> cb.cb_expired ~replica:id rs in
  let ln =
    Server.create_lane ?auditor ~tracer ~pid:(Some (id + 1)) ~id ~loop config ~execute
      ~expired
  in
  let t =
    {
      id;
      ln;
      reset_threshold;
      cb;
      busy_until_us = 0.0;
      health = Up;
      consecutive_failures = 0;
      consecutive_resets = 0;
      health_score = 1.0;
      corrupt_score = 0.0;
      quarantine_probing = false;
      clean_probes = 0;
      outstanding = [];
      epoch = 0;
    }
  in
  let rv = resolver t in
  ln.wake <- (fun () -> maybe_launch t rv);
  t

(** Credit this replica's retry budget for one fresh admitted request. The
    cluster calls it once per {e logical} request (not per copy), so hedge
    duplicates and failover requeues never inflate the budget and fleet-wide
    re-executions stay bounded by [frac * offered]. *)
let deposit_budget (t : 'a t) = Option.iter Acrobat_resilience.Budget.deposit t.ln.budget

(** Offer a request to this replica's lane ({!Server.offer}); any requests
    the full-queue sweep expired are reported through [cb_expired]. *)
let enqueue (t : 'a t) (r : 'a Admission.request) : Server.admit =
  let now_us = Event_loop.now t.ln.loop in
  Batcher.observe_arrival t.ln.batcher ~now_us;
  Server.offer t.ln ~now_us r
