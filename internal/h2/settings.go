package h2

import "fmt"

// SettingID identifies a SETTINGS parameter (RFC 7540 section 6.5.2).
type SettingID uint16

// SETTINGS parameters defined by RFC 7540 section 6.5.2.
const (
	SettingHeaderTableSize      SettingID = 0x1
	SettingEnablePush           SettingID = 0x2
	SettingMaxConcurrentStreams SettingID = 0x3
	SettingInitialWindowSize    SettingID = 0x4
	SettingMaxFrameSize         SettingID = 0x5
	SettingMaxHeaderListSize    SettingID = 0x6
)

var settingNames = map[SettingID]string{
	SettingHeaderTableSize:      "SETTINGS_HEADER_TABLE_SIZE",
	SettingEnablePush:           "SETTINGS_ENABLE_PUSH",
	SettingMaxConcurrentStreams: "SETTINGS_MAX_CONCURRENT_STREAMS",
	SettingInitialWindowSize:    "SETTINGS_INITIAL_WINDOW_SIZE",
	SettingMaxFrameSize:         "SETTINGS_MAX_FRAME_SIZE",
	SettingMaxHeaderListSize:    "SETTINGS_MAX_HEADER_LIST_SIZE",
}

// String returns the RFC 7540 name of the setting.
func (id SettingID) String() string {
	if s, ok := settingNames[id]; ok {
		return s
	}
	return fmt.Sprintf("SETTINGS_UNKNOWN_0x%x", uint16(id))
}

// Valid checks the setting value against the constraints of RFC 7540
// section 6.5.2.
func (s Setting) Valid() error {
	switch s.ID {
	case SettingEnablePush:
		if s.Val != 0 && s.Val != 1 {
			return ConnectionError{Code: ErrCodeProtocol, Reason: "ENABLE_PUSH not boolean"}
		}
	case SettingInitialWindowSize:
		if s.Val > MaxWindowSize {
			return ConnectionError{Code: ErrCodeFlowControl, Reason: "INITIAL_WINDOW_SIZE too large"}
		}
	case SettingMaxFrameSize:
		if s.Val < DefaultMaxFrameSize || s.Val > MaxAllowedFrameSize {
			return ConnectionError{Code: ErrCodeProtocol, Reason: "MAX_FRAME_SIZE out of range"}
		}
	}
	return nil
}
