open Relational

type state = {
  engine : Sim.Engine.t;
  compute_latency : batch:int -> float;
  exec : Parallel.Exec.t;
  plan : Plan.t;
  plan_state : Query.Compiled.state; (* advanced with [cache] *)
  emit : Query.Action_list.t -> unit;
  on_apply : Update.Transaction.t -> Database.t -> unit;
  queue : Update.Transaction.t Queue.t;
  mutable cache : Database.t;
  mutable busy : bool;
}

let rec pump st =
  if (not st.busy) && not (Queue.is_empty st.queue) then begin
    st.busy <- true;
    let txn = Queue.pop st.queue in
    (* Same discipline as Complete_vm: the delta runs as a future over an
       immutable snapshot of the auxiliary pre-state and is joined in the
       emit event, so a pooled exec moves real work off this domain
       without perturbing the simulated timeline. *)
    let changes = Plan.project st.plan (Query.Delta.of_transaction txn) in
    let pre = st.cache in
    let fut =
      Parallel.Exec.spawn st.exec (fun () ->
          let delta =
            Plan.delta ~exec:st.exec ~state:st.plan_state st.plan ~pre changes
          in
          Query.Action_list.delta
            ~view:(Query.View.name (Plan.view st.plan))
            ~state:txn.Update.Transaction.id delta)
    in
    st.cache <- Plan.advance st.plan st.cache changes;
    st.on_apply txn st.cache;
    Sim.Engine.schedule_after st.engine (st.compute_latency ~batch:1)
      (fun () ->
        st.emit (Parallel.Exec.await fut);
        st.busy <- false;
        pump st)
  end

let plan_of ~initial view = Plan.create ~initial view

let create ~engine ~compute_latency ?(exec = Parallel.Exec.sequential) ?state
    ?(on_apply = fun _ _ -> ()) ~initial ~view ~emit () =
  let plan, cache =
    match state with
    | Some (plan, cache) -> (plan, cache)
    | None ->
      let plan = Plan.create ~initial view in
      (plan, Plan.initial_cache plan)
  in
  let st =
    { engine; compute_latency; exec; plan;
      plan_state = Plan.state ~exec plan cache; emit; on_apply;
      queue = Queue.create (); cache; busy = false }
  in
  { Viewmgr.Vm.view; level = Viewmgr.Vm.Complete;
    receive =
      (fun txn ->
        Queue.push txn st.queue;
        pump st);
    flush = (fun () -> ());
    needs_ticks = false;
    pending = (fun () -> Queue.length st.queue + if st.busy then 1 else 0) }
