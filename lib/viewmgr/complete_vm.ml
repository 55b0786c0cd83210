open Relational

type state = {
  engine : Sim.Engine.t;
  compute_latency : batch:int -> float;
  exec : Parallel.Exec.t;
  view : Query.View.t;
  plan : Query.Compiled.t; (* the view definition, compiled once *)
  plan_state : Query.Compiled.state; (* advanced with [cache] *)
  delta_fn :
    (pre:Database.t -> Update.Transaction.t -> Signed_bag.t) option;
  emit : Query.Action_list.t -> unit;
  queue : Update.Transaction.t Queue.t;
  mutable cache : Database.t;
  mutable busy : bool;
}

let rec pump st =
  if (not st.busy) && not (Queue.is_empty st.queue) then begin
    st.busy <- true;
    let txn = Queue.pop st.queue in
    (* The delta runs as a future over a snapshot of the pre-state
       (Database.t is persistent, so [pre] is immutable); it is joined in
       the emit event, so the simulated timeline is unchanged — a pooled
       exec only moves real work off this domain. *)
    let pre = st.cache in
    let fut =
      Parallel.Exec.spawn st.exec (fun () ->
          let delta =
            match st.delta_fn with
            | Some f -> f ~pre txn
            | None ->
              let changes = Query.Delta.of_transaction txn in
              Query.Delta.eval_plan ~exec:st.exec ~state:st.plan_state ~pre
                changes st.plan
          in
          Query.Action_list.delta ~view:(Query.View.name st.view)
            ~state:txn.Update.Transaction.id delta)
    in
    st.cache <- Database.apply_relevant st.cache txn;
    Sim.Engine.schedule_after st.engine (st.compute_latency ~batch:1)
      (fun () ->
        st.emit (Parallel.Exec.await fut);
        st.busy <- false;
        pump st)
  end

let create ~engine ~compute_latency ?(exec = Parallel.Exec.sequential)
    ?delta_fn ~initial ~view ~emit () =
  let cache = Database.restrict initial (Query.View.base_relations view) in
  let plan =
    Query.Compiled.compile ~lookup:(Database.schema cache)
      view.Query.View.def
  in
  (* A supplied [delta_fn] computes every delta itself, so no plan
     state is kept for it. *)
  let plan_state =
    match delta_fn with
    | None -> Query.Compiled.state ~exec cache plan
    | Some _ -> Query.Compiled.no_state
  in
  let st =
    { engine; compute_latency; exec; view; plan; plan_state; delta_fn; emit;
      queue = Queue.create (); cache; busy = false }
  in
  { Vm.view; level = Vm.Complete;
    receive =
      (fun txn ->
        Queue.push txn st.queue;
        pump st);
    flush = (fun () -> ());
    needs_ticks = false;
    pending = (fun () -> Queue.length st.queue + if st.busy then 1 else 0) }
