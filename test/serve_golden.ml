(** Frozen observable outputs of the serving stack.

    One digest per run: the MD5 of {!Acrobat.Chaos.observable_string}
    (summary, per-tenant observations and the full trace) for every
    scenario of a fixed chaos campaign, plus a single-server projection of
    each plain cluster scenario through {!Acrobat.Serve.Server.simulate}.
    The committed [golden/serve_digests.txt] is regenerated with
    [dune exec test/gen_golden.exe > test/golden/serve_digests.txt]; a
    refactor of the serving stack that is meant to change nothing must
    leave it byte-identical. *)

open Acrobat
module Scenario = Chaos.Scenario
module Server = Serve.Server
module Stats = Serve.Stats
module Trace = Obs.Trace

let campaign_seed = 42
let fault_prob = 1.0
let scenarios = 1000

let digest s = Digest.to_hex (Digest.string s)

(* The single-server view of a plain cluster scenario: the cluster's server
   config, auditor and arrival trace, with replica 0's fault plan. *)
let server_projection (sc : Scenario.t) =
  let tracer = Trace.create () in
  let arrivals =
    Serve.Traffic.arrivals
      ~rng:(Rng.create ((sc.Scenario.sc_seed * 53) + 11))
      (Scenario.process sc) ~n:sc.Scenario.sc_requests
  in
  let stats =
    Server.simulate ~tracer ?auditor:(Chaos.auditor_of sc)
      (Chaos.cluster_config sc).Serve.Cluster.c_server ~arrivals
      ~payload:(fun i -> i)
      ~execute:(Chaos.executor_of_plan sc.Scenario.sc_plans.(0))
  in
  Chaos.observable_string (Stats.summarize stats) tracer []

(** The golden lines, in file order: every campaign scenario
    ([cluster]/[tenancy]), then the single-server projections ([server]). *)
let lines () =
  let campaign = ref [] and servers = ref [] in
  for i = 0 to scenarios - 1 do
    let sc = Scenario.generate ~campaign_seed ~fault_prob i in
    let summary, tracer, tenants, _ = Chaos.run_scenario_full sc in
    let kind = if sc.Scenario.sc_tenancy = None then "cluster" else "tenancy" in
    campaign :=
      Fmt.str "%d %s %s" i kind (digest (Chaos.observable_string summary tracer tenants))
      :: !campaign;
    if sc.Scenario.sc_tenancy = None then
      servers := Fmt.str "%d server %s" i (digest (server_projection sc)) :: !servers
  done;
  List.rev_append !campaign (List.rev !servers)
