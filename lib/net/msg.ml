type node_id = int
type payload = ..
