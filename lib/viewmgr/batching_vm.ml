open Relational

type state = {
  engine : Sim.Engine.t;
  compute_latency : batch:int -> float;
  exec : Parallel.Exec.t;
  max_batch : int;
  view : Query.View.t;
  plan : Query.Compiled.t; (* the view definition, compiled once *)
  plan_state : Query.Compiled.state; (* advanced with [cache] *)
  emit : Query.Action_list.t -> unit;
  queue : Update.Transaction.t Queue.t;
  mutable cache : Database.t;
  mutable busy : bool;
}

let rec pump st =
  if (not st.busy) && not (Queue.is_empty st.queue) then begin
    st.busy <- true;
    let rec drain acc n =
      if n >= st.max_batch || Queue.is_empty st.queue then List.rev acc
      else drain (Queue.pop st.queue :: acc) (n + 1)
    in
    let batch = drain [] 0 in
    let changes = Query.Delta.of_transactions batch in
    let pre = st.cache in
    let last =
      match List.rev batch with
      | txn :: _ -> txn.Update.Transaction.id
      | [] -> assert false
    in
    let fut =
      Parallel.Exec.spawn st.exec (fun () ->
          let delta =
            Query.Delta.eval_plan ~exec:st.exec ~state:st.plan_state ~pre
              changes st.plan
          in
          Query.Action_list.delta ~view:(Query.View.name st.view) ~state:last
            delta)
    in
    st.cache <-
      List.fold_left Database.apply_relevant st.cache batch;
    Sim.Engine.schedule_after st.engine
      (st.compute_latency ~batch:(List.length batch))
      (fun () ->
        st.emit (Parallel.Exec.await fut);
        st.busy <- false;
        pump st)
  end

let create ~engine ~compute_latency ?(exec = Parallel.Exec.sequential)
    ?(max_batch = max_int) ~initial ~view ~emit () =
  let cache = Database.restrict initial (Query.View.base_relations view) in
  let plan =
    Query.Compiled.compile ~lookup:(Database.schema cache)
      view.Query.View.def
  in
  let st =
    { engine; compute_latency; exec; max_batch; view; plan;
      plan_state = Query.Compiled.state ~exec cache plan; emit;
      queue = Queue.create (); cache; busy = false }
  in
  { Vm.view; level = Vm.Strongly_consistent;
    receive =
      (fun txn ->
        Queue.push txn st.queue;
        pump st);
    flush = (fun () -> ());
    needs_ticks = false;
    pending = (fun () -> Queue.length st.queue + if st.busy then 1 else 0) }
