package wal

// Append writes one record and waits for the durability the sync policy
// promises, as a caller of AppendAsync and WaitDurable does.
func (l *Log) Append(payload []byte) error {
	target, err := l.AppendAsync(payload)
	if err != nil {
		return err
	}
	return l.WaitDurable(target)
}
