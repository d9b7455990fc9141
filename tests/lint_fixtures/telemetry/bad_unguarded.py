"""TEL001 positive: emission without the zero-cost guard."""


class Engine:
    def __init__(self, trace_bus):
        self.trace_bus = trace_bus

    def step(self, flow):
        self.trace_bus.emit("flow_step", flow_id=flow)
        with self.trace_bus.span("flow_walk", flow_id=flow):
            pass
