open Relational

type state = {
  engine : Sim.Engine.t;
  compute_latency : batch:int -> float;
  exec : Parallel.Exec.t;
  n : int;
  view : Query.View.t;
  plan : Query.Compiled.t; (* the view definition, compiled once *)
  plan_state : Query.Compiled.state; (* advanced with [cache] *)
  emit : Query.Action_list.t -> unit;
  queue : Update.Transaction.t Queue.t;
  mutable cache : Database.t;
  mutable busy : bool;
}

let process st batch k =
  st.busy <- true;
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
          Query.Delta.eval_plan ~exec:st.exec ~state:st.plan_state ~pre changes
            st.plan
        in
        Query.Action_list.delta ~view:(Query.View.name st.view) ~state:last
          delta)
  in
  st.cache <- List.fold_left Database.apply_relevant st.cache batch;
  Sim.Engine.schedule_after st.engine (st.compute_latency ~batch:(List.length batch))
    (fun () ->
      st.emit (Parallel.Exec.await fut);
      st.busy <- false;
      k ())

let rec pump st =
  if (not st.busy) && Queue.length st.queue >= st.n then begin
    let batch = List.init st.n (fun _ -> Queue.pop st.queue) in
    process st batch (fun () -> pump st)
  end

let flush st =
  if (not st.busy) && not (Queue.is_empty st.queue) then begin
    let batch =
      List.init (Queue.length st.queue) (fun _ -> Queue.pop st.queue)
    in
    process st batch (fun () -> pump st)
  end

let create ~engine ~compute_latency ?(exec = Parallel.Exec.sequential) ~n
    ~initial ~view ~emit () =
  if n < 1 then invalid_arg "Complete_n_vm.create: n < 1";
  let cache = Database.restrict initial (Query.View.base_relations view) in
  let plan =
    Query.Compiled.compile ~lookup:(Database.schema cache)
      view.Query.View.def
  in
  let st =
    { engine; compute_latency; exec; n; view; plan;
      plan_state = Query.Compiled.state ~exec cache plan; emit;
      queue = Queue.create (); cache; busy = false }
  in
  { Vm.view; level = Vm.Complete_n n;
    receive =
      (fun txn ->
        Queue.push txn st.queue;
        pump st);
    flush = (fun () -> flush st);
    needs_ticks = false;
    pending = (fun () -> Queue.length st.queue + if st.busy then 1 else 0) }
